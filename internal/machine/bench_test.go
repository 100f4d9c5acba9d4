package machine

import "testing"

// BenchmarkNTAccessHot measures an L1-hit non-transactional access.
func BenchmarkNTAccessHot(b *testing.B) {
	m := New(testParams(1))
	m.Run([]func(*Proc){func(p *Proc) {
		p.NTWrite(0, 1) // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.NTRead(0)
		}
	}})
}

// BenchmarkHWTxRoundTrip measures begin + one store + commit.
func BenchmarkHWTxRoundTrip(b *testing.B) {
	m := New(testParams(1))
	m.Run([]func(*Proc){func(p *Proc) {
		p.NTWrite(0, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.BeginHW(m.NextAge(), true)
			p.TxWrite(0, uint64(i))
			p.CommitHW()
		}
	}})
}

// BenchmarkUFOSetClear measures the protection-bit instruction pair.
func BenchmarkUFOSetClear(b *testing.B) {
	m := New(testParams(1))
	m.Run([]func(*Proc){func(p *Proc) {
		p.SetUFOEnabled(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.SetUFO(0, 3)
			p.SetUFO(0, 0)
		}
	}})
}

// BenchmarkAccessStream measures the access path at an L1 it overflows:
// one processor's non-transactional loads and stores (one in four) at
// words drawn by a fixed LCG from four times as many lines as its L1
// holds, so the stream has hits, misses into holes and evictions.
func BenchmarkAccessStream(b *testing.B) {
	params := testParams(1)
	lines := uint64(4 * params.L1Bytes / 64)
	m := New(params)
	m.Run([]func(*Proc){func(p *Proc) {
		x := uint64(1)
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x >> 33
		}
		for l := uint64(0); l < lines; l++ {
			p.NTWrite(l*64, l) // every page first-touched before the timer starts
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := next()
			addr := r%lines*64 + r/lines%8*8
			if i%4 == 3 {
				p.NTWrite(addr, r)
			} else {
				p.NTRead(addr)
			}
		}
	}})
}

// BenchmarkAccessStreamShared measures the access path where processors
// meet: four interleaved processors at words drawn by a fixed LCG each
// from one pool of shared lines, one access in four a store, and
// processor 3's accesses inside BTM transactions of eight, so lines have
// holders, stores and misses kill them, and charges hand the token off.
// An op is one access by any processor.
func BenchmarkAccessStreamShared(b *testing.B) {
	const procs, lines, txLen = 4, 256, 8
	m := New(testParams(procs))
	for l := uint64(0); l < lines; l++ {
		m.Mem.Write64(l*64, l+1) // every page first-touched before the timer starts
	}
	n := (b.N + procs - 1) / procs
	work := make([]func(*Proc), procs)
	for i := range work {
		work[i] = func(p *Proc) {
			x := uint64(p.ID() + 1)
			for k := 0; k < n; k++ {
				x = x*6364136223846793005 + 1442695040888963407
				r := x >> 33
				addr, write := r%lines*64+r/lines%8*8, k%4 == 3
				if p.ID() != procs-1 {
					if write {
						p.NTWrite(addr, r)
					} else {
						p.NTRead(addr)
					}
					continue
				}
				if p.HW() == nil {
					p.BeginHW(m.NextAge(), true)
				}
				var out Outcome
				if write {
					out = p.TxWrite(addr, r)
				} else {
					_, out = p.TxRead(addr)
				}
				if out.Kind == Nacked {
					p.Elapse(NackCycles)
				}
				if p.HW() != nil && k%txLen == txLen-1 {
					p.CommitHW()
				}
			}
			if p.HW() != nil {
				p.CommitHW()
			}
		}
	}
	b.ResetTimer()
	m.Run(work)
}
