package tm_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
	"repro/internal/tmtest"
)

// These tests hold BTM's ISA-level behaviour (§3.1, Table 1) as the
// driver runs it: hardware attempts through the rig's driver, accesses
// through tm.HW's outcome-returning TxRead and TxWrite.

// smallL1 is a rig machine whose L1 holds four lines, one per set.
func smallL1() machine.Params {
	p := rigParams(1)
	p.L1Bytes = 4 * 64
	p.L1Ways = 1
	return p
}

func TestBeginEndRoundTrip(t *testing.T) {
	r := newRig(1, true)
	r.run(func() {
		r.d.Atomic(func(tm.Tx) {
			hw := r.d.HW()
			if out := hw.TxWrite(0, 7); out.Kind != machine.OK {
				t.Fatalf("TxWrite: %v", out)
			}
			if v, out := hw.TxRead(0); out.Kind != machine.OK || v != 7 {
				t.Fatalf("TxRead = %d/%v", v, out)
			}
		})
	})
	if r.m.Mem.Read64(0) != 7 {
		t.Fatal("commit lost write")
	}
	if r.stats().HWCommits != 1 {
		t.Fatalf("stats %+v, want one hardware commit", r.stats())
	}
}

func TestFlattenedNesting(t *testing.T) {
	r := newRig(1, true)
	r.run(func() {
		r.d.Atomic(func(tx tm.Tx) {
			ok := tx.Nested(func() {
				if r.d.P.HW() == nil {
					t.Fatal("a nested begin left no transaction")
				}
				tx.Store(0, 1)
			})
			if !ok {
				t.Fatal("the inner end failed")
			}
			if r.m.Mem.Read64(0) == 1 {
				t.Fatal("the inner end must not commit")
			}
		})
	})
	if r.m.Mem.Read64(0) != 1 || r.stats().HWCommits != 1 {
		t.Fatalf("the outer end did not commit: stats %+v", r.stats())
	}
}

func TestNestingOverflowAborts(t *testing.T) {
	r := newRig(1, true)
	r.h.On[machine.AbortNesting] = tm.Fatal
	opened := 0
	r.run(func() {
		r.d.Atomic(func(tx tm.Tx) {
			var nest func(n int)
			nest = func(n int) {
				if n > 0 {
					tx.Nested(func() {
						opened++
						nest(n - 1)
					})
				}
			}
			nest(tm.MaxNesting)
		})
	})
	if opened != tm.MaxNesting-1 {
		t.Fatalf("%d nests opened, want %d", opened, tm.MaxNesting-1)
	}
	if r.d.P.HW() != nil {
		t.Fatal("the transaction survived the nesting limit")
	}
	if n := r.m.Count.HWAbortsByReason[machine.AbortNesting]; n != 1 {
		t.Fatalf("%d nesting aborts, want 1", n)
	}
	r.want(t, "begin, software", tm.Stats{Failovers: 1})
}

func TestExplicitAbortStatusRegisters(t *testing.T) {
	r := newRig(1, true)
	r.run(func() {
		r.d.Atomic(func(tx tm.Tx) {
			tx.Store(0, 9)
			tx.Abort()
		})
	})
	if r.d.P.HW() != nil {
		t.Fatal("the transaction survived btm_abort")
	}
	if n := r.m.Count.HWAbortsByReason[machine.AbortExplicit]; n != 1 {
		t.Fatalf("%d explicit aborts, want 1", n)
	}
	if r.m.Mem.Read64(0) == 9 {
		t.Fatal("aborted store leaked")
	}
}

func TestNackRetryEventuallySucceeds(t *testing.T) {
	r := newRig(2, true)
	younger := r.driver(1, true)
	var got uint64
	r.m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			r.d.Atomic(func(tx tm.Tx) { // older: holds line 0
				tx.Store(0, 77)
				p.Elapse(2000)
			})
		},
		func(p *machine.Proc) {
			p.Elapse(100)
			younger.Atomic(func(tm.Tx) { // NACKed until the older commits
				v, out := younger.HW().TxRead(0)
				if out.Kind != machine.OK {
					t.Errorf("younger load: %v", out)
				}
				got = v
			})
		},
	})
	if got != 77 {
		t.Fatalf("younger read %d, want the committed 77", got)
	}
	if r.m.Count.Nacks == 0 {
		t.Fatal("no NACKs recorded")
	}
	if r.stats().HWCommits != 2 {
		t.Fatalf("stats %+v, want both committed in hardware", r.stats())
	}
}

// overflow runs one attempt that stores to line first and then to line
// evictor, which maps to the same set, and returns the second store's
// outcome and the hw-abort events the machine emitted.
func overflow(t *testing.T, first, evictor uint64) (machine.Outcome, []machine.TraceEvent) {
	t.Helper()
	r := newRigOn(smallL1(), true)
	r.h.On[machine.AbortOverflow] = tm.Fatal
	aborts := new(tmtest.EventLog)
	r.m.Observe(machine.KindSet(machine.TraceHWAbort), aborts)
	var out machine.Outcome
	r.run(func() {
		r.d.Atomic(func(tm.Tx) {
			hw := r.d.HW()
			hw.TxWrite(first*64, 1)
			if out = hw.TxWrite(evictor*64, 2); out.Kind == machine.HWAborted {
				if r.d.P.HW() != nil {
					t.Error("the transaction survived its overflow")
				}
				tm.Unwind(out.Reason)
			}
		})
	})
	return out, aborts.Events
}

func TestOverflowReportsStatus(t *testing.T) {
	if out, _ := overflow(t, 0, 4); out.Kind != machine.HWAborted || out.Reason != machine.AbortOverflow {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestOverflowStatusReportsVictimAddress(t *testing.T) {
	out, aborts := overflow(t, 1, 5) // evicts line 1
	if out.Kind != machine.HWAborted || out.Reason != machine.AbortOverflow {
		t.Fatalf("outcome = %+v", out)
	}
	// Table 1: "when an address is associated with the event ... it is
	// also recorded". The victim line's address is reported.
	if len(aborts) != 1 || !aborts[0].HasAddr() || aborts[0].Addr != 64 {
		t.Fatalf("hw-abort events = %+v, want one at the evicted line 1's address", aborts)
	}
}

func TestUnboundedHandlerIgnoresCapacity(t *testing.T) {
	r := newRigOn(smallL1(), true)
	r.h.Unbounded = true
	r.run(func() {
		r.d.Atomic(func(tm.Tx) {
			for i := uint64(0); i < 32; i++ {
				if out := r.d.HW().TxWrite(i*64, i); out.Kind != machine.OK {
					t.Fatalf("store %d: %v", i, out)
				}
			}
		})
	})
	if r.stats().HWCommits != 1 {
		t.Fatalf("stats %+v, want one hardware commit", r.stats())
	}
	for i := uint64(0); i < 32; i++ {
		if r.m.Mem.Read64(i*64) != i {
			t.Fatalf("word %d lost", i)
		}
	}
}

// TestMaskedAccessBypassesUFO: with UFO faults disabled (the UFO hybrid's
// masked access) a protected line is read and written; re-enabled, the
// next protected line faults again.
func TestMaskedAccessBypassesUFO(t *testing.T) {
	r := newRig(1, true)
	p := r.d.P
	r.run(func() {
		p.SetUFOEnabled(false)
		p.SetUFO(0, mem.UFOFaultAll)
		p.SetUFO(64, mem.UFOFaultAll)
		p.SetUFOEnabled(true)
		r.d.Atomic(func(tm.Tx) {
			hw := r.d.HW()
			if _, out := hw.TxRead(0); out.Kind != machine.UFOFault {
				t.Fatalf("unmasked load: %v, want fault", out)
			}
			p.SetUFOEnabled(false)
			if _, out := hw.TxRead(0); out.Kind != machine.OK {
				t.Fatalf("masked load: %v", out)
			}
			if out := hw.TxWrite(0, 5); out.Kind != machine.OK {
				t.Fatalf("masked store: %v", out)
			}
			p.SetUFOEnabled(true)
			if _, out := hw.TxRead(64); out.Kind != machine.UFOFault {
				t.Fatalf("load after re-enabling: %v, want fault", out)
			}
		})
	})
	if !p.UFOEnabled() {
		t.Fatal("UFO left disabled after masked access")
	}
	if r.m.Mem.Read64(0) != 5 {
		t.Fatal("masked store lost")
	}
}
