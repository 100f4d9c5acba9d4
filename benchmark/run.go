package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/harness"
)

// pass is one workload measured one way (untraced or traced): the
// ledger of host samples plus what the first iteration simulated, which
// every later iteration must reproduce.
type pass struct {
	ledger
	first     []cellInfo
	sim       simSummary
	attempted int
	failed    int
	failures  []string     // first few, for the human report
	its       []*iteration // kept only when spans are wanted
	keepSpans bool
	cellNames [][]string // per kept iteration
}

// session measures one workload in this process.
type session struct {
	w    workload
	seed uint64
}

// step runs one iteration of the workload into p: collect garbage left
// by whoever ran before, calibrate, run the op, calibrate again.
func (s *session) step(p *pass) {
	runtime.GC()
	it := newIteration()
	var calibMallocs, calibBytes uint64
	it.calibrate = func() time.Duration {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		d := calibKernel()
		runtime.ReadMemStats(&b)
		calibMallocs += b.Mallocs - a.Mallocs
		calibBytes += b.TotalAlloc - a.TotalAlloc
		return d
	}
	o := &opRun{it: it, seed: s.seed}

	it.runCalib()
	calibMallocs, calibBytes = 0, 0 // only the kernel runs inside the op are subtracted
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	it.startOp()
	sim, err := s.w.op(o)
	it.stopOp()
	runtime.ReadMemStats(&after)
	it.runCalib()

	names := make([]string, len(o.cells))
	for i, c := range o.cells {
		names[i] = c.name
	}
	p.add(it, names)
	p.mallocs = append(p.mallocs, float64(after.Mallocs-before.Mallocs-calibMallocs))
	p.allocMB = append(p.allocMB, float64(after.TotalAlloc-before.TotalAlloc-calibBytes)/(1<<20))
	p.gcCycles = append(p.gcCycles, float64(after.NumGC-before.NumGC))
	if p.keepSpans {
		p.its = append(p.its, it)
		p.cellNames = append(p.cellNames, names)
	}
	p.check(o.cells, sim, err)
}

// check counts the iteration's cells as attempted and fails the ones
// that errored or that differ from the first iteration of this pass:
// a run is a pure function of its inputs, so any difference is a defect.
func (p *pass) check(cells []cellInfo, sim simSummary, err error) {
	fail := func(format string, args ...any) {
		p.failed++
		if len(p.failures) < 8 {
			p.failures = append(p.failures, fmt.Sprintf(format, args...))
		}
	}
	p.attempted += len(cells)
	failedBefore := p.failed
	for _, c := range cells {
		if c.err != nil {
			fail("%s: %v", c.name, c.err)
		}
	}
	if p.first == nil {
		p.first, p.sim = cells, sim
	} else {
		if len(cells) != len(p.first) {
			fail("iteration ran %d cells, the first ran %d", len(cells), len(p.first))
		}
		for i := 0; i < len(cells) && i < len(p.first); i++ {
			if cells[i].name != p.first[i].name || cells[i].cycles != p.first[i].cycles {
				fail("%s: %d cycles, but %s took %d in the first iteration",
					cells[i].name, cells[i].cycles, p.first[i].name, p.first[i].cycles)
			}
		}
	}
	var sweep *harness.SweepError
	if err != nil && (!errors.As(err, &sweep) || p.failed == failedBefore) {
		// Not a per-cell failure already counted above.
		fail("op: %v", err)
	}
}

// digest identifies everything the pass simulated: every cell's name,
// cycles, commits and aborts. Two commits with equal digests simulated
// the same thing.
func (p *pass) digest() string {
	h := sha256.New()
	for _, c := range p.first {
		if c.digest != "" {
			fmt.Fprintln(h, c.digest)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// totals sums the first iteration's event counts.
func (p *pass) totals() counts {
	var t counts
	for _, c := range p.first {
		t.add(c.counts)
	}
	return t
}

// measure steps the workload until budget has been spent and at least
// minIters iterations are in p.
func (s *session) measure(p *pass, budget time.Duration, minIters int) {
	var spent time.Duration
	for p.iterations() < minIters || spent < budget {
		start := time.Now()
		s.step(p)
		spent += time.Since(start)
	}
}

// measureTraced is measure under a CPU profile taken by this process;
// it returns each layer's share of the profile's samples.
func (s *session) measureTraced(p *pass, budget time.Duration, minIters int) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	p.keepSpans = true
	s.measure(p, budget, minIters)
	pprof.StopCPUProfile()
	prof, err := decodeProfile(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("decode CPU profile: %w", err)
	}
	return layerShares(prof), nil
}
