package perf

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/sim"
)

// GateBenchmark is the entry the CI regression gate protects: the full
// small-scale Figure 5 sweep, mirroring BenchmarkFigure5Sweep in
// internal/harness. One op = every workload x every Figure 5 system x
// every small thread count.
const GateBenchmark = "Figure5Sweep"

// SuiteOptions mirrors the harness test configuration: small enough for
// CI, big enough to exercise every system's hot paths.
func SuiteOptions() harness.Options {
	opt := harness.DefaultOptions()
	opt.Params.MemBytes = 1 << 24
	opt.OTableRows = 1 << 13
	return opt
}

// Suite returns the benchmark suite: the gated full sweep, one
// workload-x-system cell benchmark per Figure 5 pair (at the largest
// small-scale thread count), and the engine handoff microbenchmark.
func Suite() []Bench {
	opt := SuiteOptions()
	scale := harness.ScaleSmall
	threadCounts := harness.ThreadCounts(scale)
	maxThreads := threadCounts[len(threadCounts)-1]

	benches := []Bench{{
		Name: GateBenchmark,
		Op: func() uint64 {
			var cycles uint64
			for _, f := range harness.Benchmarks(scale) {
				for _, sys := range harness.Figure5Systems {
					for _, threads := range threadCounts {
						cycles += runCell(sys, f, threads, opt)
					}
				}
			}
			return cycles
		},
	}}

	// The same sweep with per-transaction lifecycle accounting enabled:
	// the ns/op ratio against the gated entry is what -txstats-out costs.
	// Informational, not gated — the gate pattern anchors on Figure5Sweep
	// exactly, and the disabled-path cost of the lifecycle hooks is
	// bounded by the gated entry itself (they reduce to a nil check when
	// no recorder is attached).
	topt := opt
	topt.TxStats = true
	benches = append(benches, Bench{
		Name: "Figure5Sweep/txstats",
		Op: func() uint64 {
			var cycles uint64
			for _, f := range harness.Benchmarks(scale) {
				for _, sys := range harness.Figure5Systems {
					for _, threads := range threadCounts {
						cycles += runCell(sys, f, threads, topt)
					}
				}
			}
			return cycles
		},
	})

	for _, f := range harness.Benchmarks(scale) {
		for _, sys := range harness.Figure5Systems {
			f, sys := f, sys
			benches = append(benches, Bench{
				Name: fmt.Sprintf("fig5/%s/%s/t%d", f.Name, sys, maxThreads),
				Op:   func() uint64 { return runCell(sys, f, maxThreads, opt) },
			})
		}
	}

	// The scaling study's widest scalemix cell. The name keeps its
	// "single-token" suffix so the row lines up with the dated
	// BENCH_*.json baselines. Not gated.
	scaleF := harness.ScaleBenchmark(scale)
	scaleProcs := harness.ScaleProcCounts(scale)
	scaleMax := scaleProcs[len(scaleProcs)-1]
	benches = append(benches, Bench{
		Name: fmt.Sprintf("scale/%s/%s/t%d/single-token", scaleF.Name, harness.UFOHybrid, scaleMax),
		Op:   func() uint64 { return runCell(harness.UFOHybrid, scaleF, scaleMax, opt) },
	})

	// Service-workload entries: the whole small oltp sweep (all three
	// axes x all systems, the -experiment oltp hot path) plus one
	// per-system cell at the default sweep shape. Informational for now —
	// ungated until a few BENCH_*.json snapshots establish how noisy the
	// open-loop cells are (the later-gating plan is in EXPERIMENTS.md).
	benches = append(benches, Bench{
		Name: "oltp/sweep",
		Op: func() uint64 {
			rep, err := harness.Serial().OLTP(opt, scale, harness.DefaultOLTPSweep())
			if err != nil {
				panic(fmt.Sprintf("perf: oltp sweep failed: %v", err))
			}
			var cycles uint64
			for _, pt := range rep.Points {
				cycles += pt.Cycles
			}
			return cycles
		},
	})
	oltpF := harness.OLTPBenchmark(scale)
	oltpThreads := harness.OLTPThreads(scale)
	oopt := opt
	oopt.TxStats = true
	for _, sys := range harness.Figure5Systems {
		sys := sys
		benches = append(benches, Bench{
			Name: fmt.Sprintf("oltp/cell/%s/t%d", sys, oltpThreads),
			Op:   func() uint64 { return runCell(sys, oltpF, oltpThreads, oopt) },
		})
	}

	benches = append(benches, Bench{
		Name: "engine/handoff/t2",
		Op: func() uint64 {
			const steps = 200_000
			e := sim.New(sim.Config{Procs: 2, MaxSteps: 1 << 62})
			body := func(p *sim.Proc) {
				for i := 0; i < steps; i++ {
					p.Elapse(1)
				}
			}
			e.Run([]func(*sim.Proc){body, body})
			return e.Now()
		},
	})
	return benches
}

func runCell(sys harness.SystemKind, f harness.WorkloadFactory, threads int, opt harness.Options) uint64 {
	res := harness.Run(sys, f.New(), threads, opt)
	if res.Err != nil {
		panic(fmt.Sprintf("perf: %s/%s/%d failed validation: %v", f.Name, sys, threads, res.Err))
	}
	return res.Cycles
}
