package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/tm"
)

// stuck is a cell whose every thread blocks with nobody left to wake it.
type stuck struct{ panickyWorkload }

func (stuck) Thread(i int, ex tm.Exec) {
	ex.Proc().Elapse(10)
	ex.Proc().Block()
}

// outcomeJobs forces each way a cell can fail with a tiny cell, every
// observer on, and a JSONL trace sink per cell subscribed through
// Job.Observe into sinks.
func outcomeJobs(sinks []*machine.JSONLSink, traces []*bytes.Buffer) []Job {
	opt := testOptions()
	opt.TxStats, opt.Contention = true, true
	starved := opt
	starved.Params.MaxSteps = 100
	jobs := []Job{
		{System: UFOHybrid, Factory: Benchmarks(ScaleSmall)[1], Threads: 4, Opt: starved},
		{System: USTMUFO, Factory: WorkloadFactory{Name: "stuck", New: func() stamp.Workload { return stuck{} }}, Threads: 2, Opt: opt},
		{System: TL2, Factory: WorkloadFactory{Name: "always-fails", New: func() stamp.Workload { return failingWorkload{} }}, Threads: 2, Opt: opt},
		{System: HyTM, Factory: WorkloadFactory{Name: "boom", New: func() stamp.Workload { return panickyWorkload{} }}, Threads: 2, Opt: opt},
	}
	for i := range jobs {
		traces[i] = new(bytes.Buffer)
		sinks[i] = machine.NewJSONLSink(traces[i])
		jobs[i].Observe = func(m *machine.Machine) { m.Observe(machine.TraceKinds, sinks[i]) }
	}
	return jobs
}

// TestCellOutcomes: each outcome — budget, deadlock, invariant, panic —
// comes out of a sweep as a Result whose Err carries it, and as a Cell
// whose Outcome names it, the same at one worker and at four. A failed
// cell keeps what it measured: its metrics, txstats and contention
// sections and its trace parse, and the budget cell, halted mid-run,
// shows transactions begun and one still in flight.
func TestCellOutcomes(t *testing.T) {
	want := []string{"budget", "deadlock", "invariant", "panic"}
	var runs [2][]Result
	for r, workers := range []int{1, 4} {
		sinks, traces := make([]*machine.JSONLSink, len(want)), make([]*bytes.Buffer, len(want))
		var rep Report
		runner := &Runner{Workers: workers, Collect: rep.Collector()}
		results, err := runner.Execute(outcomeJobs(sinks, traces))
		var sweep *SweepError
		if !errors.As(err, &sweep) || len(sweep.Cells) != len(want) {
			t.Fatalf("%d workers: err = %v, want all %d cells failed", workers, err, len(want))
		}
		runs[r] = results
		for i, c := range rep.Cells {
			if c.Outcome != want[i] || c.Err != results[i].Err.Error() {
				t.Errorf("%d workers, cell %d: outcome %q (err %q), want %q", workers, i, c.Outcome, c.Err, want[i])
			}
			if err := sinks[i].Close(); err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.SplitAfter(traces[i].String(), "\n") {
				if line != "" && !json.Valid([]byte(line)) {
					t.Fatalf("%d workers, %s cell: trace line does not parse: %q", workers, want[i], line)
				}
			}
		}
		for _, s := range []Section{SectionMetrics, SectionTxStats, SectionContention} {
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf, s); err != nil {
				t.Fatal(err)
			}
			var doc struct{ Cells []Cell }
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.Cells) != len(want) {
				t.Fatalf("%d workers, %s: %d cells, %v", workers, s, len(doc.Cells), err)
			}
			for i, c := range doc.Cells {
				if c.Outcome != want[i] {
					t.Errorf("%d workers, %s: cell %d outcome %q, want %q", workers, s, i, c.Outcome, want[i])
				}
			}
		}
		budget := results[0]
		var halt *sim.Halt
		if !errors.As(budget.Err, &halt) || budget.TxStats == nil || budget.TxStats.Begun == 0 || budget.TxStats.InFlight == 0 ||
			budget.Metrics == nil || budget.Contention == nil || traces[0].Len() == 0 {
			t.Errorf("%d workers: the budget cell kept nothing of its run: %+v", workers, budget)
		}
	}
	for i := range want {
		if !reflect.DeepEqual(runs[0][i], runs[1][i]) {
			t.Errorf("%s cell differs between 1 and 4 workers: cycles %d vs %d", want[i], runs[0][i].Cycles, runs[1][i].Cycles)
		}
	}
}

// crowded fails its invariant whenever it runs on more than limit
// threads.
type crowded struct {
	stamp.Workload
	limit, threads int
}

func (c *crowded) Init(m *machine.Machine, threads int) {
	c.threads = threads
	c.Workload.Init(m, threads)
}

func (c *crowded) Validate(m *machine.Machine) error {
	if c.threads > c.limit {
		return fmt.Errorf("crowded at %d threads", c.threads)
	}
	return c.Workload.Validate(m)
}

// TestFailedCellContributesNoSpeedup: a cell whose invariant failed still
// measured its cycles, but prints 0.00 in a speedup table, and a failed
// sequential baseline is no baseline: every speedup over it prints 0.00.
func TestFailedCellContributesNoSpeedup(t *testing.T) {
	axis := ThreadCounts(ScaleSmall)
	for _, limit := range []int{1, 0} {
		kmeans := Benchmarks(ScaleSmall)[1]
		f := WorkloadFactory{Name: "crowded", New: func() stamp.Workload { return &crowded{Workload: kmeans.New(), limit: limit} }}
		data, err := Parallel(0).Sweep([]WorkloadFactory{f}, []SystemKind{UFOHybrid}, testOptions(), ScaleSmall)
		if err == nil {
			t.Fatalf("limit %d: no cell failed", limit)
		}
		d := data[0]
		if (d.SeqCycles == 0) != (limit == 0) {
			t.Fatalf("limit %d: baseline %d cycles", limit, d.SeqCycles)
		}
		row := fmt.Sprintf("%-14s", UFOHybrid)
		for _, th := range axis {
			cell := d.Cells[UFOHybrid][th]
			if cell.Cycles == 0 {
				t.Fatalf("limit %d: the %d-thread cell measured no cycles", limit, th)
			}
			speedup := 0.0
			if th <= limit {
				speedup = float64(d.SeqCycles) / float64(cell.Cycles)
			}
			row += fmt.Sprintf("%8.2f", speedup)
		}
		var sb strings.Builder
		printSpeedups(&sb, "Figure 5", d, []SystemKind{UFOHybrid}, axis)
		if !strings.Contains(sb.String(), row+"\n") {
			t.Errorf("limit %d: table missing %q:\n%s", limit, row, sb.String())
		}
	}
}
