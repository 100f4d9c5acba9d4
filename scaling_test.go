package repro

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mem"
)

// txReadLoop times n transactional loads by processor 0, cycling over 64
// lines of its own, while processors 1..procs-1 sit blocked inside open
// hardware transactions holding eight lines each — the shape of the
// benchmark's machine.txread_p*_ns entries, re-created here so the root
// module's tests do not depend on the benchmark module.
func txReadLoop(procs, n int) time.Duration {
	params := machine.DefaultParams(procs)
	params.MemBytes = 1 << 24
	params.Quantum = 0 // a timer interrupt would abort the measured transaction
	m := machine.New(params)
	const parkedBase = 1 << 20
	var d time.Duration
	bodies := make([]func(*machine.Proc), procs)
	bodies[0] = func(p *machine.Proc) {
		p.Elapse(1 << 20) // let every other processor open its transaction and block
		p.BeginHW(1, false)
		start := time.Now()
		for i := 0; i < n; i++ {
			p.TxRead(uint64(4096 + (i&63)*mem.LineBytes))
		}
		d = time.Since(start)
		p.CommitHW()
		for _, q := range m.Procs()[1:] {
			p.Wake(q)
		}
	}
	for i := 1; i < procs; i++ {
		id := uint64(i)
		bodies[i] = func(q *machine.Proc) {
			q.BeginHW(100+id, false)
			for k := uint64(0); k < 8; k++ {
				q.TxRead(parkedBase + (id*8+k)*mem.LineBytes)
			}
			q.Block()
			q.CommitHW()
		}
	}
	m.Run(bodies)
	return d
}

// TestTxReadCostIndependentOfProcs: conflict detection visits the
// processors that hold the line, not every processor, so a load nobody
// contests costs the same beside 63 open transactions as beside one.
// When every access scanned every processor's sets the ratio was 18.
func TestTxReadCostIndependentOfProcs(t *testing.T) {
	minOf5 := func(procs int) time.Duration {
		best := txReadLoop(procs, 20_000)
		for i := 1; i < 5; i++ {
			best = min(best, txReadLoop(procs, 20_000))
		}
		return best
	}
	p2, p64 := minOf5(2), minOf5(64)
	t.Logf("20,000 TxReads: %v beside 1 open transaction, %v beside 63 (%.2fx)", p2, p64, float64(p64)/float64(p2))
	if p64 > 2*p2 {
		t.Errorf("TxRead beside 63 open transactions costs %.1fx what it costs beside one (%v vs %v), want at most 2x",
			float64(p64)/float64(p2), p64, p2)
	}
}
