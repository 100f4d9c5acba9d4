package harness

import (
	"testing"

	"repro/internal/machine"
)

// maxCommitGap bounds how long a cell goes without a commit while a
// transaction is in flight: ten times the largest such gap of any
// system on any Benchmarks(ScaleFull) workload at 1, 4 or 8 threads
// (DESIGN.md §52 has the table, with the scale and oltp sweeps' cells,
// all far below it). It is the W a progress halt can use.
const maxCommitGap = 10 * 52_633

// commitGap observes a machine's lifecycle and keeps the longest stretch
// of cycles in which some transaction was in flight and none committed.
// Processors' clocks run ahead of each other, so the stretch starts at the
// latest commit or first begin seen, never earlier.
type commitGap struct {
	inFlight int
	since    uint64 // the latest commit, or the begin that ended an idle spell
	longest  uint64
}

func (g *commitGap) Event(e machine.TraceEvent) {
	switch e.Kind {
	case machine.TraceTxBegin:
		if g.inFlight++; g.inFlight == 1 {
			g.since = max(g.since, e.Cycle)
		}
	case machine.TraceTxCommit:
		g.inFlight--
		if e.Cycle > g.since {
			g.longest = max(g.longest, e.Cycle-g.since)
			g.since = e.Cycle
		}
	}
}

// TestCommitGapUnderBound measures the commit gap of every system on every
// Benchmarks workload at 1, 4 and 8 threads, of the scale study's systems
// on scalemix at its processor counts, and of the oltp sweep's systems on
// its default-shape cell at its thread count, and holds each under
// maxCommitGap; it logs each workload's largest gap and its cell.
func TestCommitGapUnderBound(t *testing.T) {
	var jobs []Job
	var gaps []*commitGap
	var names []string
	add := func(f WorkloadFactory, systems []SystemKind, threadCounts []int) {
		names = append(names, f.Name)
		for _, sys := range systems {
			for _, threads := range threadCounts {
				if sys == Sequential && threads > 1 {
					continue
				}
				g := new(commitGap)
				gaps = append(gaps, g)
				jobs = append(jobs, Job{System: sys, Factory: f, Threads: threads, Opt: DefaultOptions(),
					Observe: func(m *machine.Machine) {
						m.Observe(machine.KindSet(machine.TraceTxBegin, machine.TraceTxCommit), g)
					}})
			}
		}
	}
	for _, f := range Benchmarks(ScaleSmall) {
		add(f, AllSystems, []int{1, 4, 8})
	}
	add(ScaleBenchmark(ScaleSmall), ScaleSystems, ScaleProcCounts(ScaleSmall))
	add(OLTPBenchmark(ScaleSmall), OLTPSystems, []int{OLTPThreads(ScaleSmall)})
	results, err := Parallel(0).Execute(jobs)
	if err != nil {
		t.Fatal(err)
	}
	worst := map[string]int{} // workload → index of its longest gap
	for i, res := range results {
		j, g := jobs[i], gaps[i]
		if g.longest >= maxCommitGap {
			t.Errorf("%s on %s at %d threads went %d cycles without a commit, bound %d",
				j.Factory.Name, j.System, j.Threads, g.longest, maxCommitGap)
		}
		if w, ok := worst[res.Workload]; !ok || g.longest > gaps[w].longest {
			worst[res.Workload] = i
		}
	}
	for _, name := range names {
		i := worst[name]
		t.Logf("%-14s %9d cycles  %s, %d threads", name, gaps[i].longest, jobs[i].System, jobs[i].Threads)
	}
}
