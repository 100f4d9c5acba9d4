package sim

import (
	"fmt"
	"testing"
)

// BenchmarkElapseSingleProc measures the engine's fast path (no handoff).
func BenchmarkElapseSingleProc(b *testing.B) {
	e := New(Config{Procs: 1, MaxSteps: 1 << 62})
	e.Run([]func(*Proc){func(p *Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Elapse(1)
		}
	}})
}

// BenchmarkElapseTwoProcs measures the full scheduling handoff.
func BenchmarkElapseTwoProcs(b *testing.B) {
	e := New(Config{Procs: 2, MaxSteps: 1 << 62})
	body := func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Elapse(1)
		}
	}
	b.ResetTimer()
	e.Run([]func(*Proc){body, body})
}

// BenchmarkElapseFastPath measures run-ahead Elapse calls that never
// cross the horizon: many procs exist, but one runs far behind the rest,
// so every call stays inline (no handoff).
func BenchmarkElapseFastPath(b *testing.B) {
	e := New(Config{Procs: 4, MaxSteps: 1 << 62})
	parked := func(p *Proc) {
		p.Elapse(1 << 40) // park far in the future
	}
	e.Run([]func(*Proc){
		func(p *Proc) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Elapse(1)
			}
			b.StopTimer()
			p.Elapse(1 << 41) // let the parked procs drain
		},
		parked, parked, parked,
	})
}

// BenchmarkElapseContended measures the worst case for the scheduler: all
// procs advance in lockstep, so every Elapse crosses the horizon and pays
// one sift plus one coroutine switch. ns/op divided by procs is the cost
// of one handoff; procs=16 is vacation-t16's width, and 64, 128 and 256
// are the scale sweep's.
func BenchmarkElapseContended(b *testing.B) {
	for _, procs := range []int{2, 8, 16, 32, 64, 128, 256} {
		b.Run(benchName(procs), func(b *testing.B) {
			e := New(Config{Procs: procs, MaxSteps: 1 << 62})
			ws := make([]func(*Proc), procs)
			for i := range ws {
				ws[i] = func(p *Proc) {
					for n := 0; n < b.N; n++ {
						p.Elapse(1)
					}
				}
			}
			b.ResetTimer()
			e.Run(ws)
		})
	}
}

// BenchmarkElapseReference is the same contended workload on the retained
// reference scheduler, for before/after comparison.
func BenchmarkElapseReference(b *testing.B) {
	for _, procs := range []int{2, 8, 16} {
		b.Run(benchName(procs), func(b *testing.B) {
			e := New(Config{Procs: procs, MaxSteps: 1 << 62, Reference: true})
			ws := make([]func(*Proc), procs)
			for i := range ws {
				ws[i] = func(p *Proc) {
					for n := 0; n < b.N; n++ {
						p.Elapse(1)
					}
				}
			}
			b.ResetTimer()
			e.Run(ws)
		})
	}
}

func benchName(procs int) string { return fmt.Sprintf("procs=%d", procs) }

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}
