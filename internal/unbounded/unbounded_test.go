package unbounded

import (
	"testing"

	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/tm"
)

func testSystem(procs int) (*machine.Machine, *System) {
	p := machine.DefaultParams(procs)
	p.MemBytes = 1 << 22
	p.Quantum = 0
	p.MaxSteps = 10_000_000
	// Tiny L1 to prove capacity independence.
	p.L1Bytes = 8 * 64
	p.L1Ways = 1
	m := machine.New(p)
	return m, New(m, cm.KindExponential)
}

func TestHugeTransactionCommits(t *testing.T) {
	m, s := testSystem(1)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			for i := uint64(0); i < 200; i++ { // 25× the L1 capacity
				tx.Store(i*64, i)
			}
		})
	}})
	for i := uint64(0); i < 200; i++ {
		if m.Mem.Read64(i*64) != i {
			t.Fatalf("word %d lost", i)
		}
	}
	if m.Count.HWAbortsByReason[machine.AbortOverflow] != 0 {
		t.Fatal("unbounded HTM must never overflow")
	}
	if m.Count.HWCommits != 1 {
		t.Fatalf("stats = %v", tm.StatsOf(&m.Count))
	}
}

func TestInterruptRetriedInHardware(t *testing.T) {
	p := machine.DefaultParams(1)
	p.MemBytes = 1 << 22
	p.Quantum = 2_000
	p.MaxSteps = 10_000_000
	m := machine.New(p)
	s := New(m, cm.KindExponential)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(pp *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(0, tx.Load(0)+1)
			pp.Elapse(900) // most attempts straddle a quantum
		})
	}})
	if m.Mem.Read64(0) != 1 {
		t.Fatal("value wrong")
	}
	if m.Count.HWCommits != 1 {
		t.Fatalf("stats = %v", tm.StatsOf(&m.Count))
	}
}

func TestConflictingCountersStayExact(t *testing.T) {
	m, s := testSystem(4)
	var ws []func(*machine.Proc)
	for i := 0; i < 4; i++ {
		ex := s.Exec(m.Proc(i))
		ws = append(ws, func(p *machine.Proc) {
			for n := 0; n < 40; n++ {
				ex.Atomic(func(tx tm.Tx) { tx.Store(0, tx.Load(0)+1) })
			}
		})
	}
	m.Run(ws)
	if got := m.Mem.Read64(0); got != 160 {
		t.Fatalf("counter = %d, want 160", got)
	}
}

func TestExplicitAbortRestarts(t *testing.T) {
	m, s := testSystem(1)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		tries := 0
		ex.Atomic(func(tx tm.Tx) {
			tries++
			tx.Store(0, uint64(tries))
			if tries < 3 {
				tx.Abort()
			}
		})
	}})
	if m.Mem.Read64(0) != 3 {
		t.Fatalf("value = %d, want 3", m.Mem.Read64(0))
	}
}

func TestRetryEmulationEventuallySees(t *testing.T) {
	m, s := testSystem(2)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	var got uint64
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex0.Atomic(func(tx tm.Tx) {
				if tx.Load(0) == 0 {
					tx.Retry() // polling emulation in a pure HTM
				}
				got = tx.Load(0)
			})
		},
		func(p *machine.Proc) {
			p.Elapse(10_000)
			ex1.Atomic(func(tx tm.Tx) { tx.Store(0, 4) })
		},
	})
	if got != 4 {
		t.Fatalf("consumer read %d", got)
	}
	if m.Count.RetryWaits == 0 {
		t.Fatal("no retry recorded")
	}
}

func TestName(t *testing.T) {
	_, s := testSystem(1)
	if s.Name() != "unbounded-htm" {
		t.Fatal("name wrong")
	}
}
