// Package contention implements conflict attribution for the simulated
// machine: a recorder of who-aborted-whom edges — (aggressor processor,
// victim processor, cache line, abort reason, simulated cycle) — fed by
// every hardware coherence abort, UFO kill, and software conflict kill,
// aggregated into a deterministic per-address contention profile (hot
// lines, aggressor→victim matrices) and a cycle-windowed time series of
// commit and abort rates.
//
// This is the measurement layer behind the paper's abort accounting: §5's
// evaluation explains performance through per-cause abort breakdowns
// (Figure 6) and the contention behaviour of the STAMP workloads, and §4.3
// attributes UFO/BTM interaction costs to specific conflicting lines. The
// profile generalizes those figures from whole-run totals to addresses,
// processor pairs, and time.
//
// Profile is a machine.Observer of the conflict and commit events (the
// machine defines the interface so the dependency points outward;
// subscribe with m.Observe(contention.Kinds, profile)). Aggregation is
// deterministic: the engine serializes processors within a run, and
// Report freezes every map into name/addr-sorted slices, so equal runs
// produce byte-identical reports.
package contention

import (
	"repro/internal/machine"
	"repro/internal/mem"
)

// lineStat accumulates per-cache-line attribution.
type lineStat struct {
	total    uint64
	byReason [machine.NumAbortReasons]uint64
	aggr     map[int]uint64 // aggressor proc (-1 unknown) → edges
	vict     map[int]uint64 // victim proc → edges
}

// windowStat accumulates one time-series window.
type windowStat struct {
	hwCommits uint64
	swCommits uint64
	aborts    uint64
	swAborts  uint64
	byReason  [machine.NumAbortReasons]uint64
}

// Profile is the accumulating side of the attribution subsystem: one per
// machine run. It implements machine.Observer. Like obs.Snapshot
// it is not safe for concurrent use — the simulation engine serializes
// processors, and parallel sweeps give every cell its own Profile.
type Profile struct {
	procs int

	edges      uint64
	swEdges    uint64
	noAddr     uint64
	unknownAgg uint64
	hwCommits  uint64
	swCommits  uint64
	byReason   [machine.NumAbortReasons]uint64
	matrix     []uint64 // procs×procs, aggressor-major
	lines      map[uint64]*lineStat
	windows    map[uint64]*windowStat
}

// Kinds is what a Profile subscribes to: one conflict event per kill,
// and the tx-commit every Atomic loop ends a transaction with, which
// says (FlagSW) whether it committed in software.
var Kinds = machine.KindSet(machine.TraceConflict, machine.TraceTxCommit)

// The profile's two fixed shapes: a report keeps the TopK hottest lines,
// and the time series counts events in windows of WindowCycles (an event
// at cycle c lands in window c/WindowCycles).
const (
	TopK         = 16
	WindowCycles = 100_000
)

// New returns an empty profile for a machine with the given processor
// count.
func New(procs int) *Profile {
	if procs < 1 {
		procs = 1
	}
	return &Profile{
		procs:   procs,
		matrix:  make([]uint64, procs*procs),
		lines:   make(map[uint64]*lineStat),
		windows: make(map[uint64]*windowStat),
	}
}

// Event implements machine.Observer.
func (pr *Profile) Event(e machine.TraceEvent) {
	switch e.Kind {
	case machine.TraceConflict:
		pr.edge(e)
	case machine.TraceTxCommit:
		if e.SW() {
			pr.swCommits++
			pr.win(e.Cycle).swCommits++
		} else {
			pr.hwCommits++
			pr.win(e.Cycle).hwCommits++
		}
	}
}

// edge records one who-aborted-whom edge: e.Peer killed e.Proc.
func (pr *Profile) edge(e machine.TraceEvent) {
	pr.edges++
	if int(e.Reason) < len(pr.byReason) {
		pr.byReason[e.Reason]++
	}
	if e.SW() {
		pr.swEdges++
	}
	agg := e.Peer
	if agg >= pr.procs {
		agg = -1
	}
	if agg >= 0 && e.Proc >= 0 && e.Proc < pr.procs {
		pr.matrix[agg*pr.procs+e.Proc]++
	} else {
		pr.unknownAgg++
	}
	if e.HasAddr() {
		line := mem.LineAddr(mem.LineOf(e.Addr))
		ls := pr.lines[line]
		if ls == nil {
			ls = &lineStat{aggr: make(map[int]uint64), vict: make(map[int]uint64)}
			pr.lines[line] = ls
		}
		ls.total++
		if int(e.Reason) < len(ls.byReason) {
			ls.byReason[e.Reason]++
		}
		ls.aggr[agg]++
		ls.vict[e.Proc]++
	} else {
		pr.noAddr++
	}
	w := pr.win(e.Cycle)
	w.aborts++
	if e.SW() {
		w.swAborts++
	}
	if int(e.Reason) < len(w.byReason) {
		w.byReason[e.Reason]++
	}
}

// win returns the time-series window holding cycle.
func (pr *Profile) win(cycle uint64) *windowStat {
	i := cycle / WindowCycles
	w := pr.windows[i]
	if w == nil {
		w = &windowStat{}
		pr.windows[i] = w
	}
	return w
}
