package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/obs"
)

// Metric names written by RegisterMetrics. The full catalogue — units,
// meanings, and which paper figure consumes each — is documented in
// OBSERVABILITY.md; tests reference these constants so renames cannot
// silently desynchronize the schema.
const (
	MetricCycles        = "machine.cycles"
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
	// MetricAbortPrefix + AbortReason.String() names the per-reason abort
	// counters, e.g. "machine.hw_aborts.overflow".
	MetricAbortPrefix = "machine.hw_aborts."
	// MetricProcPrefix + "NN." + {cycles,l1_hits,l1_misses} names the
	// per-processor breakdowns, e.g. "machine.proc.03.cycles". Processor
	// numbers are zero-padded to two digits, so snapshots sort numerically
	// below 100 processors ("machine.proc.100." sorts before ".11.").
	MetricProcPrefix = "machine.proc."
)

// abortMetricNames[r] is MetricAbortPrefix + r.String(), and
// procMetricNames[i] processor i's cycles, l1_hits and l1_misses names:
// built once, so that RegisterMetrics builds no string.
var (
	abortMetricNames = func() (n [NumAbortReasons]string) {
		for r := range n {
			n[r] = MetricAbortPrefix + AbortReason(r).String()
		}
		return n
	}()
	procMetricNames = func() (n [cache.MaxProcs][3]string) {
		for i := range n {
			pp := fmt.Sprintf("%s%02d.", MetricProcPrefix, i)
			n[i] = [3]string{pp + "cycles", pp + "l1_hits", pp + "l1_misses"}
		}
		return n
	}()
)

// RegisterMetrics writes the machine's hardware-side event counts into
// s: global counters (per-reason aborts, NACKs, UFO kills and faults,
// STM/HTM conflict ages), the committed-footprint histograms, the
// simulated cycle count, and per-processor cycle and L1 hit/miss
// breakdowns. Call it after Run (never mid-run — it reads shared
// counters without ordering); the written values are copies.
func (m *Machine) RegisterMetrics(s *obs.Snapshot) {
	s.AddCounter(MetricCycles, "cycles", "simulated duration of the run (max over processors)", m.Cycles())
	for reason := 1; reason < NumAbortReasons; reason++ {
		s.AddCounter(abortMetricNames[reason], "aborts",
			"hardware aborts by reason (Figure 6)", m.Count.HWAbortsByReason[reason])
	}
	s.AddCounter(MetricNacks, "events", "age-ordered conflict NACKs (Section 3.1)", m.Count.Nacks)
	s.AddCounter(MetricUFOKillsTrue, "events", "set_ufo_bits kills with a true footprint conflict (Section 4.3)", m.Count.UFOKillsTrue)
	s.AddCounter(MetricUFOKillsFalse, "events", "set_ufo_bits kills without a true conflict (Section 4.3)", m.Count.UFOKillsFalse)
	s.AddCounter(MetricUFOFaults, "events", "accesses that hit UFO protection (Section 4.2)", m.Count.UFOFaults)
	s.AddCounter(MetricSTMOlder, "events", "STM-vs-HTM conflicts where the STM transaction was older (Section 5.4)", m.Count.ConflictSTMOlder)
	s.AddCounter(MetricHTMOlder, "events", "STM-vs-HTM conflicts where the HTM transaction was older (Section 5.4)", m.Count.ConflictHTMOlder)
	s.AddHistogram(MetricHWFootprint, "lines", "footprint of committed hardware transactions", &m.Count.HWFootprint)
	s.AddHistogram(MetricSWFootprint, "lines", "footprint of committed software transactions", &m.Count.SWFootprint)

	var hits, misses uint64
	for _, p := range m.procs {
		hits += p.l1.Hits()
		misses += p.l1.Misses()
		names := &procMetricNames[p.ID()]
		s.AddCounter(names[0], "cycles", "per-processor local clock at end of run", p.Now())
		s.AddCounter(names[1], "references", "per-processor L1 hits", p.l1.Hits())
		s.AddCounter(names[2], "references", "per-processor L1 misses", p.l1.Misses())
	}
	s.AddCounter(MetricL1Hits, "references", "L1 hits summed over processors", hits)
	s.AddCounter(MetricL1Misses, "references", "L1 misses summed over processors", misses)
}
