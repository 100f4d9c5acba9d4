package harness

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/stamp"
	"repro/internal/tm"
)

// TestParallelFigure5MatchesSerial is the determinism regression that
// guards the Runner forever: the full ScaleSmall Figure 5 sweep must
// produce byte-identical Result sets (cycles, TM stats, machine
// counters) at every worker count, including 1, because each cell owns
// its machine and seed. A divergence means some construction path
// shares hidden mutable state.
func TestParallelFigure5MatchesSerial(t *testing.T) {
	opt := testOptions()
	serial, err := Parallel(1).Figure5(opt, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	// %+v renders every exported field (maps key-sorted), so equal
	// strings mean bit-identical cycles, stats, and counters.
	golden := fmt.Sprintf("%+v", serial)
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0) + 2} {
		data, err := Parallel(workers).Figure5(opt, ScaleSmall)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, data) {
			t.Errorf("workers=%d: results differ from serial run", workers)
		}
		if got := fmt.Sprintf("%+v", data); got != golden {
			t.Errorf("workers=%d: rendered results differ from serial run", workers)
		}
	}
}

func TestRunnerExecuteReturnsResultsInJobOrder(t *testing.T) {
	opt := testOptions()
	var jobs []Job
	for _, threads := range []int{1, 2, 4} {
		jobs = append(jobs, Job{
			System:  UFOHybrid,
			Factory: WorkloadFactory{Name: "failover", New: func() stamp.Workload { return stamp.NewFailover(12, 20) }},
			Threads: threads,
			Opt:     opt,
		})
	}
	results, err := Parallel(3).Execute(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Threads != jobs[i].Threads {
			t.Fatalf("result %d has threads %d, want %d", i, r.Threads, jobs[i].Threads)
		}
	}
}

func TestRunnerProgressReporting(t *testing.T) {
	opt := testOptions()
	var snaps []Progress
	r := &Runner{
		Workers: 2,
		// The Runner serializes callback invocations, so the append
		// needs no lock.
		Progress: func(p Progress) { snaps = append(snaps, p) },
	}
	factory := WorkloadFactory{Name: "failover", New: func() stamp.Workload { return stamp.NewFailover(10, 0) }}
	var jobs []Job
	for i := 0; i < 5; i++ {
		jobs = append(jobs, Job{System: GlobalLock, Factory: factory, Threads: 2, Opt: opt})
	}
	if _, err := r.Execute(jobs); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(jobs) {
		t.Fatalf("progress callbacks = %d, want %d", len(snaps), len(jobs))
	}
	for i, p := range snaps {
		if p.Done != i+1 || p.Total != len(jobs) {
			t.Fatalf("snapshot %d = %d/%d, want %d/%d", i, p.Done, p.Total, i+1, len(jobs))
		}
	}
	last := snaps[len(snaps)-1]
	if last.ETA != 0 {
		t.Fatalf("final ETA = %v, want 0", last.ETA)
	}
}

// TestEachCallsEveryIndexOnce: the one worker pool calls its cell exactly
// once per index, on no more arenas than it has workers, and its
// Progress counts every call up to Total, at every worker count.
func TestEachCallsEveryIndexOnce(t *testing.T) {
	const n = 23
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0) + 2} {
		calls := make([]int, n) // each index is written by its own call only
		var (
			mu     sync.Mutex
			arenas = map[*machine.Arena]bool{}
			last   Progress
			snaps  int
		)
		r := &Runner{Workers: workers, Progress: func(p Progress) { last = p; snaps++ }}
		r.Each(n, func(arena *machine.Arena, i int) {
			calls[i]++
			mu.Lock()
			arenas[arena] = true
			mu.Unlock()
		})
		for i, c := range calls {
			if c != 1 {
				t.Fatalf("workers=%d: index %d called %d times", workers, i, c)
			}
		}
		if len(arenas) > min(workers, n) {
			t.Errorf("workers=%d: cells ran on %d arenas", workers, len(arenas))
		}
		if snaps != n || last.Done != n || last.Total != n || last.ETA != 0 {
			t.Errorf("workers=%d: %d progress reports, last %+v; want %d ending at %d/%d", workers, snaps, last, n, n, n)
		}
	}
}

// TestWorkerCountRule: a non-positive Workers, and a nil Runner, mean
// one worker per CPU — the rule tmsim -parallel documents, and the only
// one: every sweep, litmus included, runs on this pool.
func TestWorkerCountRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(6))
	if got := (*Runner)(nil).workerCount(); got != 6 {
		t.Errorf("a nil Runner resolves to %d workers, want 6", got)
	}
	for workers, want := range map[int]int{-1: 6, 0: 6, 1: 1, 3: 3} {
		if got := Parallel(workers).workerCount(); got != want {
			t.Errorf("Workers %d resolves to %d workers, want %d", workers, got, want)
		}
	}
}

// failingWorkload is a stub whose invariant always fails, exercising the
// sweep error path end to end.
type failingWorkload struct{}

func (failingWorkload) Init(m *machine.Machine, threads int) {}
func (failingWorkload) Thread(i int, ex tm.Exec)             { ex.Atomic(func(tx tm.Tx) { tx.Store(0, 1) }) }
func (failingWorkload) Validate(m *machine.Machine) error {
	return errors.New("stub invariant violated")
}

// TestSweepAggregatesCellErrors: a workload whose Validate fails must
// surface Result.Err through the whole sweep — no panic mid-sweep — and
// the aggregated report must name the exact (workload, system, threads)
// of every failing cell.
func TestSweepAggregatesCellErrors(t *testing.T) {
	opt := testOptions()
	factories := []WorkloadFactory{{Name: "always-fails", New: func() stamp.Workload { return failingWorkload{} }}}
	data, err := Parallel(2).Sweep(factories, []SystemKind{UFOHybrid, TL2}, opt, ScaleSmall)
	if err == nil {
		t.Fatal("sweep over a failing workload returned no error")
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *SweepError", err)
	}
	wantCells := 1 + 2*len(ThreadCounts(ScaleSmall)) // seq baseline + 2 systems × thread counts
	if len(se.Cells) != wantCells || se.Total != wantCells {
		t.Fatalf("error reports %d/%d cells, want %d/%d", len(se.Cells), se.Total, wantCells, wantCells)
	}
	msg := err.Error()
	for _, want := range []string{
		"always-fails on sequential with 1 threads: stub invariant violated",
		"always-fails on ufo-hybrid with 4 threads",
		"always-fails on tl2 with 2 threads",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("aggregated report missing %q:\n%s", want, msg)
		}
	}
	// The data is still fully assembled, with per-cell errors attached.
	if len(data) != 1 {
		t.Fatalf("data rows = %d, want 1", len(data))
	}
	for _, sys := range []SystemKind{UFOHybrid, TL2} {
		for _, threads := range ThreadCounts(ScaleSmall) {
			if data[0].Cells[sys][threads].Err == nil {
				t.Errorf("%s/p%d cell lost its error", sys, threads)
			}
		}
	}
}

// panickyWorkload panics mid-run; the Runner must convert that into a
// per-cell error instead of crashing the sweep.
type panickyWorkload struct{}

func (panickyWorkload) Init(m *machine.Machine, threads int) {}
func (panickyWorkload) Thread(i int, ex tm.Exec)             { panic("kaboom") }
func (panickyWorkload) Validate(m *machine.Machine) error    { return nil }

func TestRunnerCapturesCellPanics(t *testing.T) {
	opt := testOptions()
	jobs := []Job{{
		System:  GlobalLock,
		Factory: WorkloadFactory{Name: "boom", New: func() stamp.Workload { return panickyWorkload{} }},
		Threads: 2,
		Opt:     opt,
	}}
	results, err := Parallel(1).Execute(jobs)
	if err == nil {
		t.Fatal("panicking cell reported no error")
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "kaboom") {
		t.Fatalf("cell error = %v, want the captured panic", results[0].Err)
	}
	if !strings.Contains(err.Error(), "boom on global-lock with 2 threads") {
		t.Fatalf("aggregated report does not name the panicking cell: %v", err)
	}
}

func TestMergeSweepErrors(t *testing.T) {
	if err := mergeSweepErrors(nil, nil); err != nil {
		t.Fatalf("merge of nils = %v", err)
	}
	a := &SweepError{Total: 3, Cells: []CellError{{Workload: "w1", System: TL2, Threads: 2, Err: errors.New("x")}}}
	b := &SweepError{Total: 4, Cells: []CellError{{Workload: "w2", System: USTM, Threads: 4, Err: errors.New("y")}}}
	merged := mergeSweepErrors(a, nil, b)
	var se *SweepError
	if !errors.As(merged, &se) || se.Total != 7 || len(se.Cells) != 2 {
		t.Fatalf("merged = %#v", merged)
	}
}
