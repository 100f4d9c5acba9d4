// Package harness runs stamp workloads across TM systems and thread
// counts, checks their invariants, and formats the paper's evaluation
// artifacts: the Figure 5 speedup curves, the Figure 6 abort-reason
// breakdown, the Figure 7 software-failover microbenchmark, and the
// Figure 8 contention-policy sensitivity study.
//
// Paper: §5 (evaluation methodology and every figure therein).
package harness

import (
	"fmt"

	"repro/internal/cm"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/hytm"
	"repro/internal/machine"
	"repro/internal/norec"
	"repro/internal/obs"
	"repro/internal/phtm"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/sle"
	"repro/internal/stamp"
	"repro/internal/tl2"
	"repro/internal/tm"
	"repro/internal/txstats"
	"repro/internal/unbounded"
	"repro/internal/ustm"
)

// SystemKind names a buildable TM configuration.
type SystemKind string

// The buildable systems.
const (
	Sequential   SystemKind = "sequential"
	GlobalLock   SystemKind = "global-lock"
	UnboundedHTM SystemKind = "unbounded-htm"
	UFOHybrid    SystemKind = "ufo-hybrid"
	HyTM         SystemKind = "hytm"
	PhTM         SystemKind = "phtm"
	USTM         SystemKind = "ustm"
	USTMUFO      SystemKind = "ustm+ufo"
	TL2          SystemKind = "tl2"
	HybridNOrec  SystemKind = "hybrid-norec"
	SLE          SystemKind = "sle"
)

// Figure5Systems are the systems the Figure 5 sweep compares: the
// paper's six plus HybridNOrec, the value-validating hybrid head-to-head
// the ROADMAP calls for.
var Figure5Systems = []SystemKind{
	UnboundedHTM, UFOHybrid, HyTM, PhTM, USTMUFO, USTM, TL2, HybridNOrec,
}

// AllSystems lists every buildable SystemKind — the full cross-system
// surface that conformance and race tests iterate, so a newly added
// system is covered automatically.
var AllSystems = []SystemKind{
	Sequential, GlobalLock, UnboundedHTM, UFOHybrid, HyTM, PhTM,
	USTM, USTMUFO, TL2, HybridNOrec, SLE,
}

// ParseSystem resolves a user-supplied system name (a flag value, a
// config field) to its SystemKind. Unknown names return an error listing
// the valid set, so callers can fail with a usable message instead of
// panicking inside build.
func ParseSystem(name string) (SystemKind, error) {
	for _, k := range AllSystems {
		if string(k) == name {
			return k, nil
		}
	}
	return "", fmt.Errorf("unknown system %q (want one of %v)", name, AllSystems)
}

// Options configures a run.
type Options struct {
	// Params is the machine configuration; Procs is overridden by the
	// per-run thread count.
	Params machine.Params
	// OTableRows sizes the USTM otable for the STM-based systems.
	OTableRows int
	// Policy holds the UFO hybrid's Figure 8 choices; the zero Policy is
	// the paper's.
	Policy core.Policy
	// CM selects the contention-management (backoff) policy of every
	// system that has one; Build passes it to each constructor. The zero
	// Kind is the paper's capped exponential. Each sweep cell builds its
	// own cm.Manager from it, so cells stay independent.
	CM cm.Kind
	// Contention enables conflict attribution: a contention.Profile is
	// attached to the machine and its frozen Report, the only home of
	// its totals, returned in the Result. Like every observer it runs
	// only when its output is asked for.
	Contention bool
	// TxStats enables per-transaction lifecycle accounting: a
	// txstats.Recorder is attached to the machine and its frozen Report,
	// the only home of its totals, returned in the Result. Attaching the
	// recorder never changes simulated cycles — the hooks observe the
	// run without perturbing it.
	TxStats bool
}

// DefaultOptions returns the evaluation configuration.
func DefaultOptions() Options {
	p := machine.DefaultParams(1)
	p.MemBytes = 1 << 26
	p.MaxSteps = 400_000_000
	return Options{Params: p, OTableRows: 1 << 16}
}

// Build constructs the named system over a machine, with opt.CM as its
// contention-management policy.
func Build(kind SystemKind, m *machine.Machine, opt Options) tm.System {
	cfg := ustm.DefaultConfig()
	if opt.OTableRows != 0 {
		cfg.OTableRows = opt.OTableRows
	}
	switch kind {
	case Sequential:
		return seq.New(m, seq.Sequential)
	case GlobalLock:
		return seq.New(m, seq.GlobalLock)
	case UnboundedHTM:
		return unbounded.New(m, opt.CM)
	case UFOHybrid:
		return core.New(m, cfg, opt.Policy, opt.CM)
	case HyTM:
		return hytm.New(m, cfg, opt.CM)
	case PhTM:
		return phtm.New(m, cfg, opt.CM)
	case USTM:
		cfg.StrongAtomicity = false
		return ustm.New(m, cfg)
	case USTMUFO:
		cfg.StrongAtomicity = true
		return ustm.New(m, cfg)
	case TL2:
		return tl2.New(m, opt.CM)
	case HybridNOrec:
		return norec.New(m, opt.CM)
	case SLE:
		return sle.New(m, opt.CM)
	}
	// Reaching here is internal misuse: user-supplied names must go
	// through ParseSystem, which rejects unknown ones with a usable error.
	panic("harness: Build called with SystemKind " + string(kind) +
		" that is not in AllSystems; validate names with ParseSystem first")
}

// Result is one (workload, system, threads) measurement.
type Result struct {
	System   SystemKind
	Workload string
	Threads  int
	Cycles   uint64
	Stats    tm.Stats
	Machine  machine.Counters
	Metrics  *obs.Snapshot // the cell's full metrics snapshot (OBSERVABILITY.md)
	// Contention is the cell's conflict-attribution report; non-nil when
	// Options.Contention is set.
	Contention *contention.Report
	// TxStats is the cell's transaction-lifecycle report; non-nil when
	// Options.TxStats is set.
	TxStats *txstats.Report
	Err     error // non-nil if the cell failed: its invariant, or a *sim.Halt
}

// Speedup returns base/those cycles, or 0 for a cell that failed.
func (r Result) Speedup(seqCycles uint64) float64 {
	if r.Cycles == 0 || r.Err != nil {
		return 0
	}
	return float64(seqCycles) / float64(r.Cycles)
}

// baseCycles is r's cycles as a speedup's base: 0 if r failed.
func (r Result) baseCycles() uint64 {
	if r.Err != nil {
		return 0
	}
	return r.Cycles
}

// Run executes one workload on one system with the given thread count.
// The workload must be freshly constructed (Init mutates it). The Result
// names no workload: it is not a sweep cell, and only a sweep table's
// WorkloadFactory gives a workload its name.
func Run(kind SystemKind, wl stamp.Workload, threads int, opt Options) Result {
	f := WorkloadFactory{New: func() stamp.Workload { return wl }}
	return runOn(new(machine.Arena), Job{System: kind, Factory: f, Threads: threads, Opt: opt})
}

// runOn runs the cell j names on a machine built over arena, which a
// Runner worker keeps from cell to cell. One sim.Catch covers the cell
// from Factory.New to Validate: a cell that panics or halts keeps what it
// measured, with its *sim.Halt as Err, and its machine is released too.
func runOn(arena *machine.Arena, j Job) Result {
	kind, threads, opt := j.System, j.Threads, j.Opt
	params := opt.Params
	params.Procs = threads
	m := arena.New(params)
	defer m.Release()
	res := Result{System: kind, Workload: j.Factory.Name, Threads: threads}
	var sys tm.System
	var prof *contention.Profile
	var txrec *txstats.Recorder
	if halt := sim.Catch(func() {
		wl := j.Factory.New()
		if j.Observe != nil {
			j.Observe(m)
		}
		if opt.Contention {
			prof = contention.New(threads)
			m.Observe(contention.Kinds, prof)
		}
		if opt.TxStats {
			txrec = txstats.New(threads)
			m.Observe(txstats.Kinds, txrec)
		}
		sys = Build(kind, m, opt)
		wl.Init(m, threads)
		execs := make([]tm.Exec, threads)
		bodies := make([]func(*machine.Proc), threads)
		body := func(p *machine.Proc) { wl.Thread(p.ID(), execs[p.ID()]) }
		for i := range execs {
			execs[i], bodies[i] = sys.Exec(m.Proc(i)), body
		}
		m.Run(bodies)
		res.Err = wl.Validate(m)
	}); halt != nil {
		res.Err = halt
	}
	metrics := obs.NewSnapshot()
	metrics.Metrics = make([]obs.Metric, 0, cellMetrics(threads))
	if sys != nil {
		res.Stats = tm.StatsOf(&m.Count)
		res.Stats.Register(metrics)
		if ci, ok := sys.(cm.Instrumented); ok {
			ci.CM().Register(metrics)
		}
	}
	m.RegisterMetrics(metrics)
	res.Cycles, res.Machine, res.Metrics = m.Cycles(), m.Count, metrics
	if prof != nil {
		res.Contention = prof.Report(&m.Count)
	}
	if txrec != nil {
		res.TxStats = txrec.Report(&m.Count)
	}
	return res
}

// cellMetrics bounds the metrics a cell on the given number of
// processors writes — the machine's 24 and three per processor, tm's 8
// and cm's 8 — so that its snapshot's slice is allocated once
// (TestCellSnapshotIsAllocatedOnce). The contention and txstats
// sections write none: each report is the only home of its totals.
func cellMetrics(threads int) int { return 40 + 3*threads }

// WorkloadFactory builds a fresh workload instance per run.
type WorkloadFactory struct {
	Name string
	New  func() stamp.Workload
}

// FindWorkload looks a workload factory up by name across the paper and
// extension benchmark sets at the given scale.
func FindWorkload(name string, scale Scale) (WorkloadFactory, bool) {
	all := append(Benchmarks(scale), ExtendedBenchmarks(scale)...)
	for _, f := range append(all, ScaleBenchmark(scale), OLTPBenchmark(scale)) {
		if f.Name == name {
			return f, true
		}
	}
	return WorkloadFactory{}, false
}

// Scale selects experiment sizes.
type Scale int

// Scales.
const (
	// ScaleSmall keeps runs fast enough for unit tests.
	ScaleSmall Scale = iota
	// ScaleFull is the configuration the committed EXPERIMENTS.md uses.
	ScaleFull
)

// Benchmarks returns the five Figure 5 workload configurations at the
// given scale.
func Benchmarks(s Scale) []WorkloadFactory {
	type sz struct {
		kmeansPts  int
		vacRel     int
		vacTasks   int
		genomeSegs int
	}
	z := sz{kmeansPts: 320, vacRel: 192, vacTasks: 24, genomeSegs: 192}
	if s == ScaleFull {
		z = sz{kmeansPts: 2400, vacRel: 2048, vacTasks: 96, genomeSegs: 768}
	}
	return []WorkloadFactory{
		{"kmeans-high", func() stamp.Workload { return stamp.KMeansHigh(z.kmeansPts) }},
		{"kmeans-low", func() stamp.Workload { return stamp.KMeansLow(z.kmeansPts) }},
		{"vacation-high", func() stamp.Workload { return stamp.VacationHigh(z.vacRel, z.vacTasks) }},
		{"vacation-low", func() stamp.Workload { return stamp.VacationLow(z.vacRel, z.vacTasks) }},
		{"genome", func() stamp.Workload { return stamp.NewGenome(z.genomeSegs) }},
	}
}

// ExtendedBenchmarks returns the extension workloads at the given scale
// — STAMP applications beyond the three the paper evaluates, covering the
// remaining corners of the design space: ssca2 (tiny transactions, low
// contention), intruder (queue-serialized pipeline), labyrinth (huge
// transactions that live almost entirely in the software TM).
func ExtendedBenchmarks(s Scale) []WorkloadFactory {
	type sz struct {
		nodes, edges int
		flows, frags int
		grid, paths  int
	}
	z := sz{nodes: 64, edges: 400, flows: 24, frags: 4, grid: 24, paths: 3}
	if s == ScaleFull {
		z = sz{nodes: 256, edges: 3000, flows: 96, frags: 6, grid: 48, paths: 8}
	}
	return []WorkloadFactory{
		{"ssca2", func() stamp.Workload { return stamp.NewSSCA2(z.nodes, z.edges) }},
		{"intruder", func() stamp.Workload { return stamp.NewIntruder(z.flows, z.frags) }},
		{"labyrinth", func() stamp.Workload {
			l := stamp.NewLabyrinth(z.grid, z.grid, z.paths)
			if s == ScaleFull {
				// Long routes exceed BTM's capacity: the all-software regime.
				l.PathLen = 256
			}
			return l
		}},
	}
}

// ThreadCounts returns the Figure 5 x-axis at the given scale.
func ThreadCounts(s Scale) []int {
	if s == ScaleFull {
		return []int{1, 2, 4, 8, 16}
	}
	return []int{1, 2, 4}
}

// maxThreads is the scale's largest thread count, where the studies and
// Figure 7 run.
func maxThreads(s Scale) int {
	ts := ThreadCounts(s)
	return ts[len(ts)-1]
}
