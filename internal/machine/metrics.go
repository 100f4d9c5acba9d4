package machine

import (
	"fmt"

	"repro/internal/obs"
)

// Metric names exported by RegisterMetrics. The full catalogue — units,
// meanings, and which paper figure consumes each — is documented in
// OBSERVABILITY.md; tests reference these constants so renames cannot
// silently desynchronize the schema.
const (
	MetricCycles        = "machine.cycles"
	MetricHWCommits     = "machine.hw_commits"
	MetricNacks         = "machine.nacks"
	MetricUFOKillsTrue  = "machine.ufo_kills.true"
	MetricUFOKillsFalse = "machine.ufo_kills.false"
	MetricUFOFaults     = "machine.ufo_faults"
	MetricSTMOlder      = "machine.conflicts.stm_older"
	MetricHTMOlder      = "machine.conflicts.htm_older"
	MetricHWFootprint   = "machine.footprint.hw"
	MetricSWFootprint   = "machine.footprint.sw"
	MetricL1Hits        = "machine.l1.hits"
	MetricL1Misses      = "machine.l1.misses"
	MetricTraceEvents   = "machine.trace.events"
	// MetricAbortPrefix + AbortReason.String() names the per-reason abort
	// counters, e.g. "machine.hw_aborts.overflow".
	MetricAbortPrefix = "machine.hw_aborts."
	// MetricProcPrefix + "NN." + {cycles,l1_hits,l1_misses} names the
	// per-processor breakdowns, e.g. "machine.proc.03.cycles". Processor
	// numbers are zero-padded to two digits so snapshots sort numerically.
	MetricProcPrefix = "machine.proc."
)

// histInto imports a machine Hist into the registry under name.
func histInto(reg *obs.Registry, name, help string, h *Hist) {
	reg.Histogram(name, "lines", help).Import(h.Count, h.Sum, h.Max, h.Buckets[:])
}

// RegisterMetrics registers the machine's hardware-side event counts into
// reg: global counters (commits, per-reason aborts, NACKs, UFO kills and
// faults, STM/HTM conflict ages), the committed-footprint histograms, the
// simulated cycle count, and per-processor cycle and L1 hit/miss
// breakdowns. Call it after Run (never mid-run — it reads shared
// counters without ordering); the registered values are copies.
func (m *Machine) RegisterMetrics(reg *obs.Registry) {
	reg.Counter(MetricCycles, "cycles", "simulated duration of the run (max over processors)").Add(m.Cycles())
	reg.Counter(MetricHWCommits, "transactions", "hardware transactions committed (Figures 5-6)").Add(m.Count.HWCommits)
	for reason := 1; reason < NumAbortReasons; reason++ {
		reg.Counter(MetricAbortPrefix+AbortReason(reason).String(), "aborts",
			"hardware aborts by reason (Figure 6)").Add(m.Count.HWAbortsByReason[reason])
	}
	reg.Counter(MetricNacks, "events", "age-ordered conflict NACKs (Section 3.1)").Add(m.Count.Nacks)
	reg.Counter(MetricUFOKillsTrue, "events", "set_ufo_bits kills with a true footprint conflict (Section 4.3)").Add(m.Count.UFOKillsTrue)
	reg.Counter(MetricUFOKillsFalse, "events", "set_ufo_bits kills without a true conflict (Section 4.3)").Add(m.Count.UFOKillsFalse)
	reg.Counter(MetricUFOFaults, "events", "accesses that hit UFO protection (Section 4.2)").Add(m.Count.UFOFaults)
	reg.Counter(MetricSTMOlder, "events", "STM-vs-HTM conflicts where the STM transaction was older (Section 5.4)").Add(m.Count.ConflictSTMOlder)
	reg.Counter(MetricHTMOlder, "events", "STM-vs-HTM conflicts where the HTM transaction was older (Section 5.4)").Add(m.Count.ConflictHTMOlder)
	histInto(reg, MetricHWFootprint, "footprint of committed hardware transactions", &m.Count.HWFootprint)
	histInto(reg, MetricSWFootprint, "footprint of committed software transactions", &m.Count.SWFootprint)

	var hits, misses uint64
	for _, p := range m.procs {
		hits += p.l1.Hits()
		misses += p.l1.Misses()
		pp := fmt.Sprintf("%s%02d.", MetricProcPrefix, p.ID())
		reg.Counter(pp+"cycles", "cycles", "per-processor local clock at end of run").Add(p.Now())
		reg.Counter(pp+"l1_hits", "references", "per-processor L1 hits").Add(p.l1.Hits())
		reg.Counter(pp+"l1_misses", "references", "per-processor L1 misses").Add(p.l1.Misses())
	}
	reg.Counter(MetricL1Hits, "references", "L1 hits summed over processors").Add(hits)
	reg.Counter(MetricL1Misses, "references", "L1 misses summed over processors").Add(misses)

	if tr := m.Trace(); tr != nil {
		reg.Counter(MetricTraceEvents, "events", "trace events recorded (including ring-evicted)").Add(tr.Total())
	}
}
