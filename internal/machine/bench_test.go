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
