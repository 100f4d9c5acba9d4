package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/harness"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure the bounds are compared against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// span is one timed interval.
type span struct{ start, end time.Time }

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// iteration times one op: the cells the op reports, and the calibration
// kernel runs that bracket them. The clock and the kernel are fields so
// tests can drive the arithmetic with synthetic time.
type iteration struct {
	now       func() time.Time
	calibrate func() time.Duration

	op    span   // the op itself, calibrations before and after excluded
	cells []span // in completion order
	execs []span // one per Runner.Execute the op made
	cals  []span // in time order; first precedes every cell, last follows
	mark  time.Time
}

func newIteration() *iteration {
	return &iteration{now: time.Now, calibrate: calibKernel}
}

func (it *iteration) runCalib() {
	start := it.now()
	d := it.calibrate()
	it.cals = append(it.cals, span{start, start.Add(d)})
}

// startOp starts the op's clock; a calibration must already have run.
func (it *iteration) startOp() {
	it.op.start = it.now()
	it.mark = it.op.start
}

// stopOp stops the op's clock; a closing calibration must follow.
func (it *iteration) stopOp() { it.op.end = it.now() }

// cell records a completed cell that took wall and ended at end (just
// now), then re-calibrates if enough work has passed since the last
// kernel run.
func (it *iteration) cell(end time.Time, wall time.Duration) {
	it.cells = append(it.cells, span{end.Add(-wall), end})
	if end.Sub(it.cals[len(it.cals)-1].end) >= calibEvery {
		it.runCalib()
	}
	it.mark = it.now()
}

// progress is the harness.Runner Progress callback under Workers: 1.
// The first cell of an Execute lasted Progress.Elapsed, which restarts at
// every Execute inside one op; a later cell lasted from the end of the
// previous callback, so a calibration run inside the callback is never
// charged to the next cell.
func (it *iteration) progress(p harness.Progress) {
	now := it.now()
	wall := p.Elapsed
	if p.Done > 1 {
		wall = now.Sub(it.mark)
	} else {
		it.execs = append(it.execs, span{start: now.Add(-wall)})
	}
	it.execs[len(it.execs)-1].end = now
	it.cell(now, wall)
}

// calibAround returns the mean of the kernel runs bracketing s: the last
// one that ended by s.start and the first one that started at or after
// s.end.
func (it *iteration) calibAround(s span) time.Duration {
	before, after := it.cals[0], it.cals[len(it.cals)-1]
	for _, c := range it.cals {
		if !c.end.After(s.start) {
			before = c
		}
	}
	for i := len(it.cals) - 1; i >= 0; i-- {
		if !it.cals[i].start.Before(s.end) {
			after = it.cals[i]
		}
	}
	return (before.dur() + after.dur()) / 2
}

// costs returns each cell's wall time in calibration units.
func (it *iteration) costs() []float64 {
	out := make([]float64, len(it.cells))
	for i, c := range it.cells {
		out[i] = float64(c.dur()) / float64(it.calibAround(c))
	}
	return out
}

// innerCalib is the kernel time spent inside the op (between begin and
// end), which raw op time must not include.
func (it *iteration) innerCalib() time.Duration {
	var d time.Duration
	for _, c := range it.cals[1 : len(it.cals)-1] {
		d += c.dur()
	}
	return d
}

// ledger accumulates one workload's samples over iterations.
type ledger struct {
	names    []string    // cell names, fixed by the first iteration
	costs    [][]float64 // [cell][iteration] calibrated cost
	wallMS   [][]float64 // [cell][iteration] raw milliseconds
	opMS     []float64   // raw op wall per iteration, inner calibrations removed
	selfMS   []float64   // op wall minus its cells
	iterCost []float64   // Σ cell cost per iteration
	calibMS  []float64   // every kernel run
	mallocs  []float64   // per iteration
	gcCycles []float64
	allocMB  []float64
}

// add folds one finished iteration into the ledger.
func (l *ledger) add(it *iteration, names []string) {
	costs := it.costs()
	if l.names == nil {
		l.names = names
		l.costs = make([][]float64, len(names))
		l.wallMS = make([][]float64, len(names))
	}
	var cellWall time.Duration
	for i, c := range costs {
		if i >= len(l.costs) {
			break // a cell count change is reported as a determinism failure
		}
		l.costs[i] = append(l.costs[i], c)
		l.wallMS[i] = append(l.wallMS[i], ms(it.cells[i].dur()))
		cellWall += it.cells[i].dur()
	}
	op := it.op.dur() - it.innerCalib()
	l.opMS = append(l.opMS, ms(op))
	l.selfMS = append(l.selfMS, ms(op-cellWall))
	l.iterCost = append(l.iterCost, sum(costs))
	for _, c := range it.cals {
		l.calibMS = append(l.calibMS, ms(c.dur()))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hostCost is the workload's headline cost: the sum over cells of each
// cell's median calibrated cost across iterations.
func (l *ledger) hostCost() float64 {
	t := 0.0
	for _, c := range l.costs {
		t += median(c)
	}
	return t
}

// critical returns the slowest cell by median calibrated cost.
func (l *ledger) critical() (name string, cost float64) {
	for i, c := range l.costs {
		if m := median(c); m > cost {
			name, cost = l.names[i], m
		}
	}
	return name, cost
}

// cellMS returns each cell's median raw wall time in milliseconds.
func (l *ledger) cellMS() []float64 {
	out := make([]float64, len(l.wallMS))
	for i, w := range l.wallMS {
		out[i] = median(w)
	}
	return out
}

func (l *ledger) iterations() int { return len(l.opMS) }
