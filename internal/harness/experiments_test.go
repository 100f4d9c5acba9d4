package harness

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/stamp"
	"repro/internal/tmtest"
)

// The experiment drivers run end-to-end at small scale; these tests check
// their structure and rendering, not their values (claims_test.go owns
// the values).

func TestFigure5StructureAndPrint(t *testing.T) {
	opt := testOptions()
	data, err := Parallel(0).Figure5(opt, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 5 {
		t.Fatalf("workloads = %d, want 5", len(data))
	}
	for _, d := range data {
		if d.SeqCycles == 0 {
			t.Fatalf("%s: zero sequential baseline", d.Workload)
		}
		for _, sys := range Figure5Systems {
			for _, th := range ThreadCounts(ScaleSmall) {
				r, ok := d.Cells[sys][th]
				if !ok || r.Cycles == 0 {
					t.Fatalf("%s/%s/p%d missing", d.Workload, sys, th)
				}
			}
		}
	}
	var sb strings.Builder
	PrintFigure5(&sb, data, ScaleSmall)
	for _, want := range []string{"kmeans-high", "vacation-low", "genome", "ufo-hybrid", "p=4"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("Figure 5 output missing %q", want)
		}
	}
}

func TestFigure6StructureAndPrint(t *testing.T) {
	opt := testOptions()
	rows, err := Parallel(0).Figure6(opt, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5*len(Figure6Systems) {
		t.Fatalf("rows = %d", len(rows))
	}
	var sb strings.Builder
	PrintFigure6(&sb, rows)
	if !strings.Contains(sb.String(), "ufo-kill") || !strings.Contains(sb.String(), "overflow") {
		t.Fatal("Figure 6 output missing columns")
	}
}

func TestFigure7StructureAndPrint(t *testing.T) {
	opt := testOptions()
	data, err := Parallel(0).Figure7(opt, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	rates := Figure7Rates(ScaleSmall)
	if len(rates) == 0 || rates[0] != 0 || rates[len(rates)-1] != 100 || len(data) != len(rates) {
		t.Fatalf("rates = %v for %d workloads: must span 0..100, one workload each", rates, len(data))
	}
	top := maxThreads(ScaleSmall)
	for i, d := range data {
		if want := fmt.Sprintf("failover-%d%%", rates[i]); d.Workload != want || d.SeqCycles == 0 {
			t.Fatalf("workload %d = %s with seq %d cycles, want %s with a baseline", i, d.Workload, d.SeqCycles, want)
		}
		for _, sys := range Figure7Systems {
			if d.Cells[sys][top].Cycles == 0 {
				t.Fatalf("%s at %d%% missing", sys, rates[i])
			}
		}
	}
	var sb strings.Builder
	PrintFigure7(&sb, data, ScaleSmall)
	if !strings.Contains(sb.String(), "Figure 7a") || !strings.Contains(sb.String(), "Figure 7b") {
		t.Fatal("Figure 7 output incomplete")
	}
}

// TestCellsAreNamedByTheirJob: a cell's workload is the name its sweep
// table gives its job's factory, so Figure 7's cells carry their failover
// rate: six cells per rate (the sequential baseline and one per system),
// rate after rate in job order.
func TestCellsAreNamedByTheirJob(t *testing.T) {
	var rep Report
	var jobs []string
	r := Parallel(0)
	r.Collect = func(j Job, res Result) {
		jobs = append(jobs, j.Factory.Name)
		rep.Add(res)
	}
	if _, err := r.Figure7(testOptions(), ScaleSmall); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, rate := range Figure7Rates(ScaleSmall) {
		for range 1 + len(Figure7Systems) {
			want = append(want, fmt.Sprintf("failover-%d%%", rate))
		}
	}
	var got []string
	for _, c := range rep.Cells {
		got = append(got, c.Workload)
	}
	if !slices.Equal(jobs, want) || !slices.Equal(got, want) {
		t.Fatalf("job names %q, cell names %q, want %q", jobs, got, want)
	}
}

// TestPrintFigure7FailedCells: every ratio with a failed cell on either
// side prints 0 — never +Inf or NaN, and never a ratio of the cycles a
// failed cell measured before it stopped — while the healthy cells keep
// their values.
func TestPrintFigure7FailedCells(t *testing.T) {
	top := maxThreads(ScaleSmall)
	var data []Figure5Data
	for _, rate := range Figure7Rates(ScaleSmall) {
		d := Figure5Data{Workload: fmt.Sprintf("failover-%d%%", rate), SeqCycles: 1000, Cells: map[SystemKind]map[int]Result{}}
		for _, sys := range Figure7Systems {
			d.Cells[sys] = map[int]Result{top: {Cycles: 500}}
		}
		data = append(data, d)
	}
	data[0].Cells[UFOHybrid][top] = Result{Err: errors.New("panic: boom")}                 // 0%: one system failed
	data[1].Cells[UnboundedHTM][top] = Result{Cycles: 250, Err: errors.New("panic: boom")} // 5%: the reference failed mid-run
	var sb strings.Builder
	PrintFigure7(&sb, data, ScaleSmall)
	out := sb.String()
	if strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
		t.Fatalf("a failed cell printed a non-finite ratio:\n%s", out)
	}
	fig7a, fig7b, _ := strings.Cut(out, "Figure 7b")
	if want := fmt.Sprintf("%-14s%8.2f%8.2f", UFOHybrid, 0.0, 2.0); !strings.Contains(fig7a, want) {
		t.Errorf("Figure 7a missing %q:\n%s", want, fig7a)
	}
	for _, want := range []string{
		fmt.Sprintf("%-14s%8.3f%8.3f\n", UFOHybrid, 0.0, 0.0), // its own failure, then the reference's
		fmt.Sprintf("%-14s%8.3f%8.3f\n", HyTM, 1.0, 0.0),      // the reference's failure at 5%
	} {
		if !strings.Contains(fig7b, want) {
			t.Errorf("Figure 7b missing %q:\n%s", want, fig7b)
		}
	}
}

func TestFigure8StructureAndPrint(t *testing.T) {
	opt := testOptions()
	rows, err := Parallel(0).Figure8(opt, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	// Three workloads × six variants.
	if len(rows) != 3*len(figure8Configs()) {
		t.Fatalf("rows = %d", len(rows))
	}
	var sb strings.Builder
	PrintFigure8(&sb, rows)
	if !strings.Contains(sb.String(), "requester-wins") {
		t.Fatal("Figure 8 output missing variants")
	}
}

func TestAblationsStructureAndPrint(t *testing.T) {
	opt := testOptions()
	rows, err := Parallel(0).Ablations(opt, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	studies := map[string]int{}
	for _, r := range rows {
		studies[r.Study]++
	}
	for _, s := range []string{"ufo-mitigations", "l1-size", "otable-size", "quantum"} {
		if studies[s] == 0 {
			t.Fatalf("study %q missing", s)
		}
	}
	var sb strings.Builder
	PrintAblations(&sb, rows)
	if !strings.Contains(sb.String(), "lazy clear") {
		t.Fatal("ablation output missing configs")
	}
}

// TestStudyRows pins what every runStudy caller returns: rows
// workload-major in config order, each carrying its study, its config
// label and the job's system at the scale's top thread count, and a
// sequential baseline exactly where the study measures one.
func TestStudyRows(t *testing.T) {
	five := []string{"kmeans-high", "kmeans-low", "vacation-high", "vacation-low", "genome"}
	ufo := func(n int) []SystemKind {
		out := make([]SystemKind, n)
		for i := range out {
			out[i] = UFOHybrid
		}
		return out
	}
	// block is one study's part of a result: its rows are workloads ×
	// configs, configs[i] running on systems[i].
	type block struct {
		study     string
		baseline  bool
		workloads []string
		configs   []string
		systems   []SystemKind
	}
	policies := []string{"exp", "linear", "karma", "serialize"}
	cases := []struct {
		name   string
		run    func(*Runner, Options, Scale) ([]Row, error)
		blocks []block
	}{
		{"Figure6", (*Runner).Figure6, []block{{"fig6", false, five,
			[]string{"unbounded-htm", "ufo-hybrid", "hytm", "phtm"}, Figure6Systems}}},
		{"Figure8", (*Runner).Figure8, []block{{"fig8", true, []string{"kmeans-high", "vacation-high", "genome"},
			[]string{"age-ordered (default)", "requester-wins+failover5", "requester-wins",
				"failover-on-5th-conflict", "stall-on-ufo-fault", "true-conflict-kills-only"}, ufo(6)}}},
		{"Footprints", (*Runner).Footprints, []block{{"footprints", false, append(five[:5:5], "ssca2", "intruder", "labyrinth"),
			[]string{"ufo-hybrid"}, ufo(1)}}},
		{"PolicySweep", (*Runner).PolicySweep, []block{{"policies", true, five,
			append(policies[:4:4], policies...),
			[]SystemKind{UFOHybrid, UFOHybrid, UFOHybrid, UFOHybrid, HybridNOrec, HybridNOrec, HybridNOrec, HybridNOrec}}}},
		{"Ablations", (*Runner).Ablations, []block{
			{"ufo-mitigations", true, []string{"vacation-high"},
				[]string{"eager (default)", "owner-state install", "lazy clear", "both mitigations", "true-conflict limit"}, ufo(5)},
			{"l1-size", true, []string{"vacation-high"}, []string{"4 KB", "8 KB", "16 KB", "32 KB", "64 KB"}, ufo(5)},
			{"otable-size", true, []string{"vacation-low"}, []string{"64 rows", "1024 rows", "65536 rows"},
				[]SystemKind{USTMUFO, USTMUFO, USTMUFO}},
			{"quantum", true, []string{"kmeans-low"},
				[]string{"5000 cycles", "50000 cycles", "200000 cycles", "2000000 cycles"}, ufo(4)},
		}},
	}
	top := ThreadCounts(ScaleSmall)[len(ThreadCounts(ScaleSmall))-1]
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rows, err := c.run(Parallel(0), testOptions(), ScaleSmall)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for _, b := range c.blocks {
				for _, wl := range b.workloads {
					var seq uint64
					for k, cfg := range b.configs {
						if i >= len(rows) {
							t.Fatalf("%d rows, want more: next is %s/%s/%s", len(rows), b.study, wl, cfg)
						}
						r := rows[i]
						i++
						if r.Study != b.study || r.Workload != wl || r.Config != cfg || r.System != b.systems[k] || r.Threads != top {
							t.Fatalf("row %d = %s/%s/%s on %s at %d threads, want %s/%s/%s on %s at %d",
								i-1, r.Study, r.Workload, r.Config, r.System, r.Threads, b.study, wl, cfg, b.systems[k], top)
						}
						if r.Cycles == 0 {
							t.Errorf("row %d (%s/%s/%s) measured nothing", i-1, b.study, wl, cfg)
						}
						if (r.SeqCycles != 0) != b.baseline {
							t.Errorf("row %d (%s/%s/%s): SeqCycles = %d, study has a baseline: %v", i-1, b.study, wl, cfg, r.SeqCycles, b.baseline)
						}
						if k > 0 && r.SeqCycles != seq {
							t.Errorf("row %d (%s/%s/%s): SeqCycles = %d, the workload's first row has %d", i-1, b.study, wl, cfg, r.SeqCycles, seq)
						}
						seq = r.SeqCycles
					}
				}
			}
			if i != len(rows) {
				t.Fatalf("%d rows, want %d", len(rows), i)
			}
		})
	}

	// A cell that dies before it has a workload to ask still yields a row
	// named after its job: Row reads Workload and System from the Result
	// runOn builds, not from the job list.
	t.Run("PanickingFactory", func(t *testing.T) {
		boom := WorkloadFactory{Name: "boom", New: func() stamp.Workload { panic("no workload") }}
		rows, err := Parallel(1).runStudy("doomed", []WorkloadFactory{boom}, true, ScaleSmall, testOptions(),
			[]studyConfig{{name: "only", system: HyTM}})
		var sweep *SweepError
		if !errors.As(err, &sweep) || len(sweep.Cells) != 2 {
			t.Fatalf("err = %v, want a SweepError naming the baseline and the cell", err)
		}
		if len(rows) != 1 {
			t.Fatalf("rows = %d, want 1", len(rows))
		}
		r := rows[0]
		if r.Study != "doomed" || r.Config != "only" || r.Workload != "boom" || r.System != HyTM || r.Threads != top {
			t.Fatalf("row = %s/%s/%s on %s at %d threads", r.Study, r.Workload, r.Config, r.System, r.Threads)
		}
		if r.Err == nil || r.SeqCycles != 0 {
			t.Fatalf("row err = %v, SeqCycles = %d: want the panic and no baseline", r.Err, r.SeqCycles)
		}
	})
}

func TestAblationL1SizeDirectionality(t *testing.T) {
	opt := testOptions()
	rows, err := Parallel(0).AblationL1Size(opt, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	// Failovers must not increase with L1 size.
	var prev = ^uint64(0)
	for _, r := range rows {
		f := r.Stats.Failovers
		if f > prev {
			t.Fatalf("failovers rose with a larger L1: %v", rows)
		}
		prev = f
	}
	// And the smallest cache must actually overflow at this scale.
	if rows[0].Stats.Failovers == 0 {
		t.Fatal("4 KB L1 produced no failovers")
	}
}

func TestExtendedSweep(t *testing.T) {
	opt := testOptions()
	data, err := Parallel(0).Extended(opt, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 3 {
		t.Fatalf("extended workloads = %d, want 3", len(data))
	}
	names := map[string]bool{}
	for _, d := range data {
		names[d.Workload] = true
	}
	for _, want := range []string{"ssca2", "intruder", "labyrinth"} {
		if !names[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

// TestJobObserveSeesTheRun: Job.Observe is handed the cell's machine
// once, before anything runs on it, and what it subscribes there sees
// the run — every hardware commit the cell's counters report.
func TestJobObserveSeesTheRun(t *testing.T) {
	var log tmtest.EventLog
	calls := 0
	job := Job{System: UFOHybrid, Factory: Benchmarks(ScaleSmall)[0], Threads: 2, Opt: testOptions(),
		Observe: func(m *machine.Machine) {
			calls++
			if m.Cycles() != 0 || m.Count.HWCommits != 0 {
				t.Errorf("Observe called on a machine that already ran: %d cycles", m.Cycles())
			}
			m.Observe(machine.KindSet(machine.TraceTxCommit), &log)
		}}
	results, err := Parallel(1).Execute([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	var hw uint64
	for _, e := range log.Events {
		if !e.SW() {
			hw++
		}
	}
	if calls != 1 || hw == 0 || hw != results[0].Machine.HWCommits {
		t.Fatalf("Observe called %d times; log saw %d hardware tx-commits, counters %d", calls, hw, results[0].Machine.HWCommits)
	}
}
