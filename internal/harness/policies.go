package harness

import (
	"fmt"
	"io"

	"repro/internal/cm"
)

// PolicySystems are the hybrids the contention-management ablation
// compares: the paper's UFO hybrid and HybridNOrec, whose exemplar
// exposes the same retry/backoff knobs through its CM template
// parameter — the natural pair for measuring how policy choice
// interacts with fallback design.
var PolicySystems = []SystemKind{UFOHybrid, HybridNOrec}

// PolicySweep compares every contention-management policy (cm.Kinds)
// across the Figure 5 workloads on each PolicySystems hybrid at the
// scale's largest thread count; a row's Config is the policy's -policy
// flag value (exp | linear | karma | serialize). Like every sweep it
// fans out through the Runner's worker pool and is deterministic for
// every worker count: each cell owns its machine and builds its own
// cm.Manager from the kind.
func (r *Runner) PolicySweep(opt Options, scale Scale) ([]Row, error) {
	var configs []studyConfig
	for _, sys := range PolicySystems {
		for _, kind := range cm.Kinds {
			configs = append(configs, studyConfig{string(kind), sys, func(o *Options) { o.CM = kind }})
		}
	}
	return r.runStudy("policies", Benchmarks(scale), true, scale, opt, configs)
}

// PrintPolicySweep renders the policy comparison as one table per
// (workload, system): speedup plus the policy's own decision counters
// (delays issued, cycles spent backing off, starvation escalations)
// next to the retry/failover counts they drive.
func PrintPolicySweep(w io.Writer, rows []Row) {
	workload, system := "", SystemKind("")
	for _, r := range rows {
		if r.Workload != workload || r.System != system {
			workload, system = r.Workload, r.System
			fmt.Fprintf(w, "\nPolicy ablation — %s (%s, speedup vs. sequential; seq = %d cycles)\n",
				workload, system, r.SeqCycles)
			fmt.Fprintf(w, "%-11s %8s %10s %12s %12s %10s %10s\n",
				"policy", "speedup", "hwRetries", "failovers", "delayCycles", "delays", "starved")
		}
		if failedRow(w, r.Err, "%-11s", r.Config) {
			continue
		}
		m := r.Metrics
		fmt.Fprintf(w, "%-11s %8.2f %10d %12d %12d %10d %10d\n",
			r.Config, r.Speedup(r.SeqCycles),
			r.Stats.HWRetries, r.Stats.Failovers,
			m.Counter("cm.delay_cycles"), m.Counter("cm.delays"),
			m.Counter("cm.starvation_escalations"))
	}
}
