package harness

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/machine"
)

// Job is one independent sweep cell: a system, a fresh-workload factory,
// a thread count, and the options to run it under. Each cell resets and
// reuses its worker's machine arena — blank again when the previous cell
// released it — and builds everything else, the seed-derived RNG streams
// included, from its own Params inside Run, which is what makes cells
// safe to execute concurrently and their results independent of
// execution order.
type Job struct {
	System  SystemKind
	Factory WorkloadFactory
	Threads int
	Opt     Options
	// Observe, when non-nil, is called once with the cell's machine
	// before anything is built on it: the place to subscribe this cell's
	// own observers (a trace sink, a test's event log). It is per Job
	// because Opt is copied to every cell of a sweep and cells run
	// concurrently. Whoever opened a sink closes it after Execute, whether
	// or not the cell failed.
	Observe func(*machine.Machine)
}

// Progress is a snapshot of a running sweep, delivered to the Runner's
// Progress callback after every completed cell.
type Progress struct {
	// Done and Total count cells.
	Done, Total int
	// Elapsed is the wall-clock time since Each started.
	Elapsed time.Duration
	// ETA estimates the remaining wall-clock time from the mean cell
	// cost so far; zero when Done == Total.
	ETA time.Duration
}

// CellError names one failing sweep cell.
type CellError struct {
	Workload string
	System   SystemKind
	Threads  int
	Err      error
}

func (c CellError) Error() string {
	return fmt.Sprintf("%s on %s with %d threads: %v", c.Workload, c.System, c.Threads, c.Err)
}

// SweepError aggregates every failing cell of a sweep: instead of
// panicking mid-sweep on the first bad cell, the Runner finishes the
// whole sweep and reports all failures, each naming its exact
// (workload, system, threads) coordinates.
type SweepError struct {
	Total int // cells attempted
	Cells []CellError
}

func (e *SweepError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "harness: %d of %d sweep cells failed:", len(e.Cells), e.Total)
	for _, c := range e.Cells {
		sb.WriteString("\n  ")
		sb.WriteString(c.Error())
	}
	return sb.String()
}

// Runner executes sweep cells across a bounded worker pool (Each). The
// zero value (and a nil *Runner) runs with one worker per available CPU
// and no progress reporting.
//
// Determinism guarantee: every cell owns its RNG seed and a machine
// whose reused storage its worker's previous cell left blank (a cell
// that failed leaves its worker a new arena instead), so a cell's
// Result is a pure function of its Job. Execute returns results
// indexed by job order, so the assembled output is bit-identical for
// every worker count, including 1 (the serial order). The worker count
// changes only wall-clock time.
type Runner struct {
	// Workers bounds the number of concurrently executing cells;
	// values <= 0 select runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, is invoked after each completed cell.
	// Invocations are serialized by the Runner and Done is strictly
	// increasing, so the callback needs no locking of its own.
	Progress func(Progress)
	// Collect, when non-nil, is invoked once per cell after the whole
	// sweep completes, in job order regardless of which worker finished
	// the cell when — so anything it accumulates (e.g. a Report)
	// is deterministic across worker counts. Invocations are serialized.
	Collect func(Job, Result)
}

// Parallel returns a Runner bounded at workers (<= 0 means all CPUs).
func Parallel(workers int) *Runner { return &Runner{Workers: workers} }

func (r *Runner) workerCount() int {
	if r == nil || r.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

func (r *Runner) progress() func(Progress) {
	if r == nil {
		return nil
	}
	return r.Progress
}

// Each is the one worker pool: it calls cell(arena, i) once for every i
// in [0, n) across the Runner's bounded workers and returns when all
// calls have, reporting Progress after each. Every worker owns one
// machine.Arena from call to call. A cell builds its machines with
// arena.New and releases each one once it has read what it needs, so the
// next call finds the arena blank; a cell whose run panicked released
// nothing and must replace *arena with an empty one. A cell must not
// panic itself, and it writes its outcome to its own index.
func (r *Runner) Each(n int, cell func(arena *machine.Arena, i int)) {
	var (
		start   = time.Now()
		report  = r.progress()
		mu      sync.Mutex
		done    int
		wg      sync.WaitGroup
		indexes = make(chan int)
	)
	for w := min(r.workerCount(), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var arena machine.Arena // this worker's, from cell to cell
			for i := range indexes {
				cell(&arena, i)
				if report != nil {
					mu.Lock()
					done++
					p := Progress{Done: done, Total: n, Elapsed: time.Since(start)}
					if remaining := n - done; remaining > 0 {
						p.ETA = p.Elapsed / time.Duration(done) * time.Duration(remaining)
					}
					report(p)
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		indexes <- i
	}
	close(indexes)
	wg.Wait()
}

// Execute runs every job through Each and returns the results in job
// order: result i belongs to jobs[i] no matter which worker finished it
// when. A cell that fails validation — or panics — contributes its error
// to the returned *SweepError rather than aborting the sweep; the Result
// slice is always fully populated.
func (r *Runner) Execute(jobs []Job) ([]Result, error) {
	results := make([]Result, len(jobs))
	r.Each(len(jobs), func(arena *machine.Arena, i int) { results[i] = runCell(arena, jobs[i]) })
	if r != nil && r.Collect != nil {
		for i := range jobs {
			r.Collect(jobs[i], results[i])
		}
	}
	return results, sweepError(results)
}

// runCell executes one job on its worker's arena, converting a panic
// anywhere under Run (machine livelock diagnostics, step-budget
// exhaustion, workload bugs) into a Result error so one bad cell cannot
// take down a whole sweep. Such a cell died mid-transaction, with rows
// locked and SR/SW and UFO bits set, and released nothing: the worker
// goes on with an empty arena rather than trust a reset of that state.
func runCell(arena *machine.Arena, j Job) (res Result) {
	defer func() {
		if rec := recover(); rec != nil {
			*arena = machine.Arena{}
			res = Result{
				System:   j.System,
				Workload: j.Factory.Name,
				Threads:  j.Threads,
				Err:      fmt.Errorf("panic: %v", rec),
			}
		}
	}()
	return runOn(arena, j, j.Factory.New())
}

// sweepError collects the failing cells of a completed sweep.
func sweepError(results []Result) error {
	var cells []CellError
	for _, res := range results {
		if res.Err != nil {
			cells = append(cells, CellError{
				Workload: res.Workload,
				System:   res.System,
				Threads:  res.Threads,
				Err:      res.Err,
			})
		}
	}
	if len(cells) == 0 {
		return nil
	}
	return &SweepError{Total: len(results), Cells: cells}
}

// mergeSweepErrors combines the per-phase errors of a multi-part
// experiment into one aggregated report.
func mergeSweepErrors(errs ...error) error {
	var total int
	var cells []CellError
	for _, err := range errs {
		if err == nil {
			continue
		}
		var se *SweepError
		if errors.As(err, &se) {
			total += se.Total
			cells = append(cells, se.Cells...)
			continue
		}
		return err
	}
	if len(cells) == 0 {
		return nil
	}
	return &SweepError{Total: total, Cells: cells}
}
