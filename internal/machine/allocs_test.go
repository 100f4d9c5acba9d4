package machine

import (
	"testing"

	"repro/internal/mem"
)

// TestRunAllocsPerProc pins what one more simulated processor costs a
// cell in heap allocations: New plus a Run of empty workloads. Every cell
// of every sweep pays it, so it is the deterministic part of the
// benchmark's allocs_per_op — and, since transactions stopped allocating
// (DESIGN.md §25: USTM's otable records come from the table's free list,
// workloads build their bodies once per thread, commit scratch lives on
// the exec), most of it: what is left beside this is the workload's Init
// and the TM system's own construction. At the time of writing a machine
// costs 16 allocations and each processor 16 more — 4 in New (the L1 and
// its interrupt hook), 12 in Run (the coroutine).
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
		idle := new(eventLog)
		if observed {
			m.Observe(KindSet(TraceNack), idle)
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
				p.TxLifeAbort(PathHTM, AbortConflict, false)
				p.TxLifeBackoff(10)
				p.TxLifeRetryWait()
				p.TxLifeCommit(PathHTM, false)
				p.SetUFO(192, mem.UFOFaultOnWrite)
				p.RecordSWKill(p, AbortConflict, 192, true)
				p.TxLifeCommit(PathSW, true)
			})
		}})
		if got != 0 {
			t.Errorf("observed=%v: %v allocs per unobserved transaction, want 0", observed, got)
		}
		if len(idle.events) != 0 {
			t.Errorf("observed=%v: observer called %d times for kinds it did not subscribe to", observed, len(idle.events))
		}
	}
}

// TestAccessAllocs pins the four data-path operations at zero heap
// allocations in the three shapes an access takes: an L1 hit nobody
// contests, a miss on a line another processor caches (the coherence
// walk over the sharer mask), and an access that finds a conflicting
// hardware transaction and kills it (the walk over the SR/SW masks).
// Processor 1 never runs; processor 0 arranges its cache and its
// transaction by hand before every access.
func TestAccessAllocs(t *testing.T) {
	const addr = 4096
	line := mem.LineOf(addr)
	ops := []struct {
		name string
		tx   bool
		do   func(p *Proc)
	}{
		{"NTRead", false, func(p *Proc) { p.NTRead(addr) }},
		{"NTWrite", false, func(p *Proc) { p.NTWrite(addr, 1) }},
		{"TxRead", true, func(p *Proc) { p.TxRead(addr) }},
		{"TxWrite", true, func(p *Proc) { p.TxWrite(addr, 1) }},
	}
	shapes := []struct {
		name          string
		arrange       func(p, q *Proc)
		misses, kills uint64 // over AllocsPerRun's 101 calls: the shape happened every time
	}{
		{"hit", func(p, q *Proc) {}, 1, 0},
		{"miss with sharers", func(p, q *Proc) {
			p.l1.Invalidate(line)
			p.m.dir.Remove(line, p.ID())
			q.l1.Touch(line)
			p.m.dir.Add(line, q.ID())
		}, 101, 0},
		{"kills a victim", func(p, q *Proc) {
			q.BeginHW(2, false) // younger than the age-1 transaction p opens
			q.hw.mark(line, p.m.dir.Line(line), true)
		}, 1, 101},
	}
	for _, shape := range shapes {
		for _, op := range ops {
			m := New(testParams(2))
			var got float64
			m.Run([]func(*Proc){func(p *Proc) {
				q := m.Proc(1)
				got = testing.AllocsPerRun(100, func() {
					shape.arrange(p, q)
					if op.tx {
						p.BeginHW(1, true)
					}
					op.do(p)
					if op.tx {
						p.CommitHW()
					}
					if q.hw != nil {
						q.consumeAbort()
					}
				})
			}, func(*Proc) {}})
			if got != 0 {
				t.Errorf("%s, %s: %v allocs per access, want 0", op.name, shape.name, got)
			}
			misses, kills := m.Proc(0).l1.Misses(), m.Count.HWAbortsByReason[AbortConflict]+m.Count.HWAbortsByReason[AbortNonTConflict]
			if misses != shape.misses || kills != shape.kills {
				t.Errorf("%s, %s: %d misses and %d kills, want %d and %d", op.name, shape.name, misses, kills, shape.misses, shape.kills)
			}
		}
	}
}
