package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
)

// workload is one named benchmark workload: op runs one iteration
// through the production entry points and reports what it simulated.
type workload struct {
	name string
	why  string
	op   func(o *opRun) (simSummary, error)
}

// workloads lists the benchmark's five workloads; BENCHMARK.json carries
// the same names and reasons.
func workloads() []workload {
	return []workload{
		{"fig5-small", "The Figure 5 sweep CI and developers run: 125 cells of ~3 ms, so per-cell set-up (otable, memory and lock-table zeroing, GC) dominates; pooling and lazy-init work shows here and nowhere else.", opFig5Small},
		{"vacation-t16", "Long, large-footprint transactions at 16 procs on four systems; set-up is under 2% of CPU, so this is the steady-state per-access path: handoff, conflict scan, map-backed sets, UFO kills.", opVacationT16},
		{"oltp-open", "Open-loop OLTP sweep: 80% point reads at 8 procs, idle gaps, txstats recorder live; a read-path gain that costs the write path shows as a split against vacation-t16.", opOLTPOpen},
		{"scale-256", "scalemix at 64/128/256 procs: few conflicts, real compute between accesses, so the O(P) conflict scan and the scheduler dominate; a change aimed here must not move fig5-small.", opScale256},
		{"layer-micro", "Fixed-count direct calls into each layer's public functions: a layer does all its work in its own entries, so a layer claim has a place where the prediction for every other layer is no change.", opLayerMicro},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cellInfo is what the benchmark keeps of one cell's harness.Result.
type cellInfo struct {
	name   string
	cycles uint64
	err    error
	counts counts
	digest string // the cell's line in the workload digest; empty for micro cells
}

// counts are the deterministic per-cell event counts behind the group B
// per-layer metrics.
type counts struct {
	cycles, accesses, l1Misses, nacks, hwCommits, hwAborts, ufoKills uint64
	swCommits, swAborts, failovers                                   uint64
}

func (c *counts) add(o counts) {
	c.cycles += o.cycles
	c.accesses += o.accesses
	c.l1Misses += o.l1Misses
	c.nacks += o.nacks
	c.hwCommits += o.hwCommits
	c.hwAborts += o.hwAborts
	c.ufoKills += o.ufoKills
	c.swCommits += o.swCommits
	c.swAborts += o.swAborts
	c.failovers += o.failovers
}

// simSummary is the simulated result a workload's op reports. Fields a
// workload has no data for stay zero.
type simSummary struct {
	hybridVsTL2   float64 // geomean tl2 cycles / ufo-hybrid cycles
	goodputHybrid float64 // geomean ufo-hybrid commits per 1000 cycles
	speedupHybrid float64 // geomean sequential cycles / ufo-hybrid cycles
	respP99Hybrid float64 // open loop only
	wastedShare   float64 // open loop only
}

// opRun is one iteration's context: the clock the op's cells are timed
// on and the per-cell results it collects.
type opRun struct {
	it    *iteration
	seed  uint64
	cells []cellInfo
}

// runner returns the production sweep executor wired to this iteration:
// one host worker, Progress timing each cell, Collect keeping its result.
func (o *opRun) runner() *harness.Runner {
	return &harness.Runner{Workers: 1, Progress: o.it.progress, Collect: o.collect}
}

func (o *opRun) collect(_ harness.Job, res harness.Result) {
	var aborts uint64
	for _, n := range res.Machine.HWAbortsByReason {
		aborts += n
	}
	c := counts{
		cycles:    res.Cycles,
		nacks:     res.Machine.Nacks,
		hwCommits: res.Machine.HWCommits,
		hwAborts:  aborts,
		ufoKills:  res.Machine.UFOKillsTrue + res.Machine.UFOKillsFalse,
		swCommits: res.Stats.SWCommits,
		swAborts:  res.Stats.SWAborts,
		failovers: res.Stats.Failovers,
	}
	if res.Metrics != nil {
		c.l1Misses = res.Metrics.Counter(machine.MetricL1Misses)
		c.accesses = res.Metrics.Counter(machine.MetricL1Hits) + c.l1Misses
	}
	// Several cells of one sweep can share (workload, system, threads) —
	// the oltp axes do — so the cell's position is part of its name.
	name := fmt.Sprintf("%03d/%s/%s/t%d", len(o.cells), res.Workload, res.System, res.Threads)
	o.cells = append(o.cells, cellInfo{
		name:   name,
		cycles: res.Cycles,
		err:    res.Err,
		counts: c,
		digest: fmt.Sprintf("%s cycles=%d hw=%d sw=%d aborts=%v swaborts=%d",
			name, res.Cycles, res.Stats.HWCommits, res.Stats.SWCommits,
			res.Machine.HWAbortsByReason, res.Stats.SWAborts),
	})
}

// microCell records a cell the benchmark timed itself.
func (o *opRun) microCell(name string, wall time.Duration) {
	o.it.cell(o.it.now(), wall)
	o.cells = append(o.cells, cellInfo{name: name})
}

// simPoint is one (benchmark or axis point, largest processor count)
// comparison the simulated-result metrics are built from.
type simPoint struct {
	seqCycles     uint64 // zero when the sweep has no sequential cell
	hybridCycles  uint64
	hybridCommits uint64
	tl2Cycles     uint64
}

// summarize folds the points into geometric means.
func summarize(points []simPoint) simSummary {
	var vs, good, speed []float64
	for _, p := range points {
		if p.hybridCycles == 0 {
			continue
		}
		h := float64(p.hybridCycles)
		vs = append(vs, float64(p.tl2Cycles)/h)
		good = append(good, 1000*float64(p.hybridCommits)/h)
		if p.seqCycles != 0 {
			speed = append(speed, float64(p.seqCycles)/h)
		}
	}
	return simSummary{hybridVsTL2: geomean(vs), goodputHybrid: geomean(good), speedupHybrid: geomean(speed)}
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func pointOf(seq uint64, hybrid, tl2 harness.Result) simPoint {
	return simPoint{
		seqCycles:     seq,
		hybridCycles:  hybrid.Cycles,
		hybridCommits: hybrid.Stats.Commits(),
		tl2Cycles:     tl2.Cycles,
	}
}

// figure5Points takes each benchmark's cells at its largest processor
// count.
func figure5Points(data []harness.Figure5Data) []simPoint {
	var pts []simPoint
	for _, d := range data {
		top := 0
		for t := range d.Cells[harness.UFOHybrid] {
			if t > top {
				top = t
			}
		}
		pts = append(pts, pointOf(d.SeqCycles, d.Cells[harness.UFOHybrid][top], d.Cells[harness.TL2][top]))
	}
	return pts
}

// smallOptions is the gated Figure5Sweep shape: small memory and otable,
// so set-up cost is what CI pays.
func smallOptions(seed uint64) harness.Options {
	opt := harness.DefaultOptions()
	opt.Params.MemBytes = 1 << 24
	opt.OTableRows = 1 << 13
	opt.Params.Seed = seed
	return opt
}

func fullOptions(seed uint64) harness.Options {
	opt := harness.DefaultOptions()
	opt.Params.Seed = seed
	return opt
}

func opFig5Small(o *opRun) (simSummary, error) {
	data, err := o.runner().Figure5(smallOptions(o.seed), harness.ScaleSmall)
	return summarize(figure5Points(data)), err
}

func benchmarkNamed(name string, scale harness.Scale) harness.WorkloadFactory {
	for _, f := range harness.Benchmarks(scale) {
		if f.Name == name {
			return f
		}
	}
	panic("benchmark: harness.Benchmarks has no " + name)
}

func opVacationT16(o *opRun) (simSummary, error) {
	opt := fullOptions(o.seed)
	f := benchmarkNamed("vacation-high", harness.ScaleFull)
	jobs := []harness.Job{{System: harness.Sequential, Factory: f, Threads: 1, Opt: opt}}
	for _, sys := range []harness.SystemKind{harness.UnboundedHTM, harness.UFOHybrid, harness.TL2, harness.USTMUFO} {
		jobs = append(jobs, harness.Job{System: sys, Factory: f, Threads: 16, Opt: opt})
	}
	res, err := o.runner().Execute(jobs)
	return summarize([]simPoint{pointOf(res[0].Cycles, res[2], res[3])}), err
}

func opOLTPOpen(o *opRun) (simSummary, error) {
	rep, err := o.runner().OLTP(fullOptions(o.seed), harness.ScaleFull, harness.DefaultOLTPSweep())
	if rep == nil {
		return simSummary{}, err
	}
	// The load axis: MeanGap=120 is the highest offered load, past every
	// system's knee; MeanGap=1000 is a mid-load point below it.
	var s simSummary
	var hybrid, tl2 harness.OLTPPoint
	for _, pt := range rep.Points {
		if pt.Axis != "load" {
			continue
		}
		switch {
		case pt.MeanGap == 120 && pt.System == harness.UFOHybrid:
			hybrid = pt
		case pt.MeanGap == 120 && pt.System == harness.TL2:
			tl2 = pt
		case pt.MeanGap == 1000 && pt.System == harness.UFOHybrid && pt.Response != nil:
			s.respP99Hybrid = pt.Response.P99
		}
	}
	if hybrid.Cycles == 0 || tl2.Cycles == 0 || s.respP99Hybrid == 0 {
		return s, errors.Join(err, errors.New("benchmark: oltp report lacks the ufo-hybrid/tl2 load points at gaps 120 and 1000"))
	}
	s.hybridVsTL2 = float64(tl2.Cycles) / float64(hybrid.Cycles)
	s.goodputHybrid = hybrid.Goodput
	s.wastedShare = hybrid.WastedShare
	return s, err
}

func opScale256(o *opRun) (simSummary, error) {
	d, err := o.runner().ScaleSweep(fullOptions(o.seed), harness.ScaleFull)
	return summarize(figure5Points([]harness.Figure5Data{d})), err
}

// opLayerMicro runs one batch of every micro entry, then the cheapest
// cells the harness can run — smallest kmeans on the sequential system,
// the hybrid and TL2 — whose first is the fixed price of a cell.
func opLayerMicro(o *opRun) (simSummary, error) {
	for _, e := range microEntries() {
		o.microCell(e.name, e.run(e.n, o.seed))
	}
	opt := smallOptions(o.seed)
	f := benchmarkNamed("kmeans-low", harness.ScaleSmall)
	res, err := o.runner().Execute([]harness.Job{
		{System: harness.Sequential, Factory: f, Threads: 1, Opt: opt},
		{System: harness.UFOHybrid, Factory: f, Threads: 2, Opt: opt},
		{System: harness.TL2, Factory: f, Threads: 2, Opt: opt},
	})
	return summarize([]simPoint{pointOf(res[0].Cycles, res[1], res[2])}), err
}

// commitRatio is commits over attempts: every attempt ends in a commit
// or an abort.
func (c counts) commitRatio() float64 {
	commits := c.hwCommits + c.swCommits
	attempts := commits + c.hwAborts + c.swAborts
	if attempts == 0 {
		return 0
	}
	return float64(commits) / float64(attempts)
}
