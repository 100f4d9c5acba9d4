package sle

import (
	"testing"

	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/tm"
)

func testMachine(procs int) *machine.Machine {
	p := machine.DefaultParams(procs)
	p.MemBytes = 1 << 22
	p.Quantum = 0
	p.MaxSteps = 20_000_000
	return machine.New(p)
}

func TestDisjointCriticalSectionsRunConcurrently(t *testing.T) {
	// Four threads, one lock, disjoint data: with elision the lock never
	// serializes them, so the elapsed time is far below 4× the serial
	// critical-section time.
	m := testMachine(4)
	s := New(m, cm.KindExponential)
	base := m.Mem.Sbrk(4 * 64)
	var ws []func(*machine.Proc)
	for i := 0; i < 4; i++ {
		ex := s.Exec(m.Proc(i))
		mine := base + uint64(i)*64
		ws = append(ws, func(p *machine.Proc) {
			for n := 0; n < 25; n++ {
				ex.Atomic(func(tx tm.Tx) {
					tx.Store(mine, tx.Load(mine)+1)
					p.Elapse(200)
				})
			}
		})
	}
	m.Run(ws)
	for i := uint64(0); i < 4; i++ {
		if got := m.Mem.Read64(base + i*64); got != 25 {
			t.Fatalf("slot %d = %d, want 25", i, got)
		}
	}
	if st := tm.StatsOf(&m.Count); st.HWCommits != 100 || st.SWCommits != 0 {
		t.Fatalf("stats = %v: disjoint sections must all elide", st)
	}
	// 100 sections of ≥200 cycles serialized would exceed 20k cycles;
	// concurrent execution should be well under half that.
	if m.Cycles() > 12_000 {
		t.Fatalf("elapsed %d cycles: elision did not overlap the sections", m.Cycles())
	}
}

func TestConflictingSectionsStayCorrect(t *testing.T) {
	m := testMachine(4)
	s := New(m, cm.KindExponential)
	var ws []func(*machine.Proc)
	for i := 0; i < 4; i++ {
		ex := s.Exec(m.Proc(i))
		ws = append(ws, func(p *machine.Proc) {
			for n := 0; n < 25; n++ {
				ex.Atomic(func(tx tm.Tx) {
					tx.Store(0, tx.Load(0)+1)
				})
				p.Elapse(uint64(10 + p.Rand().Intn(60)))
			}
		})
	}
	m.Run(ws)
	if got := m.Mem.Read64(0); got != 100 {
		t.Fatalf("counter = %d, want 100", got)
	}
}

func TestFallbackAcquiresLock(t *testing.T) {
	// A system call aborts every hardware attempt of processor 0, so each
	// of its sections takes the lock for real, while an eliding peer
	// conflicts on the same counter, which must stay exact.
	m := testMachine(2)
	s := New(m, cm.KindExponential)
	var ws []func(*machine.Proc)
	for i := 0; i < 2; i++ {
		ex := s.Exec(m.Proc(i))
		ws = append(ws, func(p *machine.Proc) {
			for n := 0; n < 30; n++ {
				ex.Atomic(func(tx tm.Tx) {
					if p.ID() == 0 {
						tx.Syscall()
					}
					tx.Store(0, tx.Load(0)+1)
					p.Elapse(150) // widen the conflict window
				})
			}
		})
	}
	m.Run(ws)
	if got := m.Mem.Read64(0); got != 60 {
		t.Fatalf("counter = %d, want 60", got)
	}
	// Processor 1's sections may take the lock too, when they lose to a
	// holder Attempts times.
	if st := tm.StatsOf(&m.Count); st.SWCommits < 30 || st.HWCommits+st.SWCommits != 60 {
		t.Fatalf("stats = %v: want processor 0's 30 sections on the lock", st)
	}
}

func TestRealAcquisitionAbortsEliders(t *testing.T) {
	m := testMachine(2)
	s := New(m, cm.KindExponential)
	var sawLockHeld bool
	ex := s.Exec(m.Proc(0))
	locker := s.lock.Exec(m.Proc(1)) // the global-lock path, under the same lock
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex.Atomic(func(tx tm.Tx) {
				tx.Store(0, 1)
				p.Elapse(5_000) // long speculative section
			})
		},
		func(p *machine.Proc) {
			p.Elapse(500)
			// Take the lock for real mid-speculation.
			locker.Atomic(func(tm.Tx) {
				sawLockHeld = true
				p.Elapse(1_000)
			})
		},
	})
	if !sawLockHeld {
		t.Fatal("locker never ran")
	}
	if m.Count.HWRetries == 0 {
		t.Fatal("real acquisition must abort the concurrent elider")
	}
	if m.Mem.Read64(0) != 1 {
		t.Fatal("critical section lost")
	}
}
