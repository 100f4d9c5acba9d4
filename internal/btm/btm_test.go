package btm

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
)

func testMachine(procs int) *machine.Machine {
	p := machine.DefaultParams(procs)
	p.MemBytes = 1 << 20
	p.Quantum = 0
	p.MaxSteps = 2_000_000
	return machine.New(p)
}

func TestBeginEndRoundTrip(t *testing.T) {
	m := testMachine(1)
	u := New(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		if !u.Begin(m.NextAge()) {
			t.Fatal("Begin failed")
		}
		if out := u.Store(0, 7); out.Kind != machine.OK {
			t.Fatalf("Store: %v", out)
		}
		if v, out := u.Load(0); out.Kind != machine.OK || v != 7 {
			t.Fatalf("Load = %d/%v", v, out)
		}
		if out := u.End(); out.Kind != machine.OK {
			t.Fatalf("End: %v", out)
		}
	}})
	if m.Mem.Read64(0) != 7 {
		t.Fatal("commit lost write")
	}
}

func TestFlattenedNesting(t *testing.T) {
	m := testMachine(1)
	u := New(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		u.Begin(m.NextAge())
		u.Begin(0) // nested: flattened, age ignored
		if p.HW() == nil {
			t.Fatal("a nested Begin left no transaction")
		}
		u.Store(0, 1)
		if out := u.End(); out.Kind != machine.OK {
			t.Fatalf("inner End: %v", out)
		}
		if m.Mem.Read64(0) == 1 {
			t.Fatal("inner End must not commit")
		}
		if out := u.End(); out.Kind != machine.OK {
			t.Fatalf("outer End: %v", out)
		}
	}})
	if m.Mem.Read64(0) != 1 {
		t.Fatal("outer End did not commit")
	}
}

func TestNestingOverflowAborts(t *testing.T) {
	m := testMachine(1)
	u := New(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		u.Begin(m.NextAge())
		for i := 0; i < MaxNesting-1; i++ {
			if !u.Begin(0) {
				t.Fatalf("Begin failed at depth %d", i+2)
			}
		}
		if u.Begin(0) {
			t.Fatal("Begin beyond MaxNesting must fail")
		}
		if p.HW() != nil {
			t.Fatal("the transaction survived the nesting limit")
		}
	}})
	if n := m.Count.HWAbortsByReason[machine.AbortNesting]; n != 1 {
		t.Fatalf("%d nesting aborts, want 1", n)
	}
}

func TestExplicitAbortStatusRegisters(t *testing.T) {
	m := testMachine(1)
	u := New(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		u.Begin(m.NextAge())
		u.Store(0, 9)
		u.Abort(machine.AbortExplicit)
		if p.HW() != nil {
			t.Fatal("the transaction survived btm_abort")
		}
	}})
	if n := m.Count.HWAbortsByReason[machine.AbortExplicit]; n != 1 {
		t.Fatalf("%d explicit aborts, want 1", n)
	}
	if m.Mem.Read64(0) == 9 {
		t.Fatal("aborted store leaked")
	}
}

func TestNackRetryEventuallySucceeds(t *testing.T) {
	m := testMachine(2)
	u0, u1 := New(m.Proc(0)), New(m.Proc(1))
	var got uint64
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			u0.Begin(m.NextAge()) // older: will hold line 0
			u0.Store(0, 77)
			p.Elapse(2000)
			if out := u0.End(); out.Kind != machine.OK {
				t.Errorf("older commit: %v", out)
			}
		},
		func(p *machine.Proc) {
			p.Elapse(100)
			u1.Begin(m.NextAge()) // younger: NACKed until the older commits
			v, out := u1.Load(0)
			if out.Kind != machine.OK {
				t.Errorf("younger load: %v", out)
				return
			}
			got = v
			u1.End()
		},
	})
	if got != 77 {
		t.Fatalf("younger read %d, want the committed 77", got)
	}
	if m.Count.Nacks == 0 {
		t.Fatal("no NACKs recorded")
	}
}

func TestOverflowReportsStatus(t *testing.T) {
	params := machine.DefaultParams(1)
	params.MemBytes = 1 << 20
	params.Quantum = 0
	params.L1Bytes = 4 * 64
	params.L1Ways = 1
	m := machine.New(params)
	u := New(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		u.Begin(m.NextAge())
		u.Store(0, 1)
		out := u.Store(4*64, 2)
		if out.Kind != machine.HWAborted || out.Reason != machine.AbortOverflow {
			t.Fatalf("outcome = %+v", out)
		}
		if p.HW() != nil {
			t.Fatal("the transaction survived its overflow")
		}
	}})
}

func TestUnboundedUnitIgnoresCapacity(t *testing.T) {
	params := machine.DefaultParams(1)
	params.MemBytes = 1 << 20
	params.Quantum = 0
	params.L1Bytes = 4 * 64
	params.L1Ways = 1
	m := machine.New(params)
	u := NewUnbounded(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		u.Begin(m.NextAge())
		for i := uint64(0); i < 32; i++ {
			if out := u.Store(i*64, i); out.Kind != machine.OK {
				t.Fatalf("store %d: %v", i, out)
			}
		}
		if out := u.End(); out.Kind != machine.OK {
			t.Fatalf("End: %v", out)
		}
	}})
	for i := uint64(0); i < 32; i++ {
		if m.Mem.Read64(i*64) != i {
			t.Fatalf("word %d lost", i)
		}
	}
}

func TestMaskedAccessBypassesUFO(t *testing.T) {
	m := testMachine(1)
	u := New(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		p.SetUFOEnabled(false)
		p.SetUFO(0, mem.UFOFaultAll)
		p.SetUFOEnabled(true)
		u.Begin(m.NextAge())
		if _, out := u.Load(0); out.Kind != machine.UFOFault {
			t.Fatalf("unmasked load: %v, want fault", out)
		}
		if _, out := u.LoadMasked(0); out.Kind != machine.OK {
			t.Fatalf("masked load: %v", out)
		}
		if out := u.StoreMasked(0, 5); out.Kind != machine.OK {
			t.Fatalf("masked store: %v", out)
		}
		if !p.UFOEnabled() {
			t.Fatal("UFO left disabled after masked access")
		}
		u.End()
	}})
	if m.Mem.Read64(0) != 5 {
		t.Fatal("masked store lost")
	}
}

func TestOverflowStatusReportsVictimAddress(t *testing.T) {
	params := machine.DefaultParams(1)
	params.MemBytes = 1 << 20
	params.Quantum = 0
	params.L1Bytes = 4 * 64
	params.L1Ways = 1
	m := machine.New(params)
	u := New(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		u.Begin(m.NextAge())
		u.Store(64, 1)
		out := u.Store(5*64, 2) // evicts line 1 → overflow
		if out.Kind != machine.HWAborted || out.Reason != machine.AbortOverflow {
			t.Fatalf("outcome = %+v", out)
		}
		// Table 1: "when an address is associated with the event ... it
		// is also recorded". The victim line's address is reported.
		if out.Addr != 64 {
			t.Fatalf("abort address = %#x, want the evicted line 1's", out.Addr)
		}
	}})
}
