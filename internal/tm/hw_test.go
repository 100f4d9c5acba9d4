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
// through tm.HW's outcome-returning Access.

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
			if _, out := hw.Access(0, true, 7); out.Kind != machine.OK {
				t.Fatalf("store: %v", out)
			}
			if v, out := hw.Access(0, false, 0); out.Kind != machine.OK || v != 7 {
				t.Fatalf("load = %d/%v", v, out)
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

// TestNackRetryEventuallySucceeds: a younger transaction's load or store
// of a line an older one has written is NACKed and re-requested until the
// older commits, then completes: the load reads the committed value, and
// the store commits after it.
func TestNackRetryEventuallySucceeds(t *testing.T) {
	for _, write := range []bool{false, true} {
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
					v, out := younger.HW().Access(0, write, 88)
					if out.Kind != machine.OK {
						t.Errorf("younger access (write %v): %v", write, out)
					}
					got = v
				})
			},
		})
		switch {
		case !write && got != 77:
			t.Fatalf("younger read %d, want the committed 77", got)
		case write && r.m.Mem.Read64(0) != 88:
			t.Fatalf("memory holds %d, want the younger store's 88 over the older's 77", r.m.Mem.Read64(0))
		case r.m.Count.Nacks == 0:
			t.Fatalf("write %v: no NACKs recorded", write)
		case r.stats().HWCommits != 2:
			t.Fatalf("write %v: stats %+v, want both committed in hardware", write, r.stats())
		}
	}
}

// overflow runs one attempt that stores to line first and then to line
// evictor, which maps to the same set, and returns the second store's
// outcome and the conflict events the machine emitted.
func overflow(t *testing.T, first, evictor uint64) (machine.Outcome, []machine.TraceEvent) {
	t.Helper()
	r := newRigOn(smallL1(), true)
	r.h.On[machine.AbortOverflow] = tm.Fatal
	aborts := new(tmtest.EventLog)
	r.m.Observe(machine.KindSet(machine.TraceConflict), aborts)
	var out machine.Outcome
	r.run(func() {
		r.d.Atomic(func(tm.Tx) {
			hw := r.d.HW()
			hw.Access(first*64, true, 1)
			if _, out = hw.Access(evictor*64, true, 2); out.Kind == machine.HWAborted {
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
	if len(aborts) != 1 || aborts[0].Reason != machine.AbortOverflow || !aborts[0].HasAddr() || aborts[0].Addr != 64 {
		t.Fatalf("conflict events = %+v, want one overflow at the evicted line 1's address", aborts)
	}
}

func TestUnboundedHandlerIgnoresCapacity(t *testing.T) {
	r := newRigOn(smallL1(), true)
	r.h.Unbounded = true
	r.run(func() {
		r.d.Atomic(func(tm.Tx) {
			for i := uint64(0); i < 32; i++ {
				if _, out := r.d.HW().Access(i*64, true, i); out.Kind != machine.OK {
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
			if _, out := hw.Access(0, false, 0); out.Kind != machine.UFOFault {
				t.Fatalf("unmasked load: %v, want fault", out)
			}
			p.SetUFOEnabled(false)
			if _, out := hw.Access(0, false, 0); out.Kind != machine.OK {
				t.Fatalf("masked load: %v", out)
			}
			if _, out := hw.Access(0, true, 5); out.Kind != machine.OK {
				t.Fatalf("masked store: %v", out)
			}
			p.SetUFOEnabled(true)
			if _, out := hw.Access(64, false, 0); out.Kind != machine.UFOFault {
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
