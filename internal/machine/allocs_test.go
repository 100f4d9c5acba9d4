package machine

import (
	"testing"

	"repro/internal/mem"
)

// TestRunAllocsPerProc pins what one more simulated processor costs a
// cell in heap allocations: New plus a Run of empty workloads. Every cell
// of every sweep pays it, so it is the deterministic part of the
// benchmark's allocs_per_op. At the time of writing a machine costs 16
// allocations and each processor 16 more — 4 in New (the L1 and its
// interrupt hook), 12 in Run (the coroutine).
func TestRunAllocsPerProc(t *testing.T) {
	const perMachine, perProc = 24, 18 // ceilings, a little above today's 16 and 16
	for _, procs := range []int{1, 16, 64} {
		params := DefaultParams(procs)
		ws := make([]func(*Proc), procs)
		for i := range ws {
			ws[i] = func(*Proc) {}
		}
		got := testing.AllocsPerRun(10, func() { New(params).Run(ws) })
		if ceiling := float64(perMachine + perProc*procs); got > ceiling {
			t.Errorf("%d procs: New+Run made %.0f allocations, ceiling %.0f (%d + %d per processor)",
				procs, got, ceiling, perMachine, perProc)
		}
	}
}

// TestUnobservedEmitsAllocNothing pins the price of an emit site nobody
// is listening to: a hardware transaction, a UFO install and every
// TxLife* emitter allocate nothing, both on a machine with no observer
// and on one whose only observer subscribed to a kind none of them emit
// — and that observer is never called.
func TestUnobservedEmitsAllocNothing(t *testing.T) {
	for _, observed := range []bool{false, true} {
		m := New(testParams(1))
		idle := NewTrace(16)
		if observed {
			m.Observe(KindSet(TraceBlock), idle)
		}
		var got float64
		m.Run([]func(*Proc){func(p *Proc) {
			p.SetUFOEnabled(false)
			got = testing.AllocsPerRun(100, func() {
				p.TxLifeArrival(p.Now())
				p.TxLifeBegin()
				p.TxLifeAttempt(PathHTM)
				p.BeginHW(1, true)
				p.TxRead(64)
				p.TxWrite(128, 1)
				p.CommitHW()
				p.TxLifeAbort(PathHTM, AbortConflict)
				p.TxLifeBackoff(10)
				p.TxLifeRetryWait()
				p.TxLifeCommit(PathHTM)
				p.SetUFO(192, mem.UFOFaultOnWrite)
				p.RecordSWKill(p, AbortConflict, 192, true)
				p.RecordSWCommit()
			})
		}})
		if got != 0 {
			t.Errorf("observed=%v: %v allocs per unobserved transaction, want 0", observed, got)
		}
		if idle.Total() != 0 {
			t.Errorf("observed=%v: observer called %d times for kinds it did not subscribe to", observed, idle.Total())
		}
	}
}
