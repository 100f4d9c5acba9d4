package tl2

import (
	"testing"

	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/tm"
)

func testSystem(procs int) (*machine.Machine, *System) {
	p := machine.DefaultParams(procs)
	p.MemBytes = 1 << 24
	p.Quantum = 0
	p.MaxSteps = 10_000_000
	m := machine.New(p)
	return m, New(m, cm.KindExponential)
}

func TestCommitPublishesLazily(t *testing.T) {
	m, s := testSystem(1)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(0, 42)
			// Lazy versioning: memory unchanged until commit...
			if m.Mem.Read64(0) != 0 {
				t.Error("TL2 wrote to memory before commit")
			}
			// ...but the transaction sees its own write via the redo log.
			if tx.Load(0) != 42 {
				t.Error("read-own-write failed")
			}
		})
	}})
	if m.Mem.Read64(0) != 42 {
		t.Fatal("commit did not publish")
	}
	if s.Stats().SWCommits != 1 {
		t.Fatalf("stats = %v", s.Stats())
	}
}

func TestReadOnlyFastPath(t *testing.T) {
	m, s := testSystem(1)
	ex := s.Exec(m.Proc(0))
	m.Mem.Write64(0, 9)
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		var v uint64
		ex.Atomic(func(tx tm.Tx) { v = tx.Load(0) })
		if v != 9 {
			t.Errorf("read %d", v)
		}
	}})
	if s.clock != 0 {
		t.Fatal("read-only commit must not advance the global clock")
	}
}

func TestStaleReadAborts(t *testing.T) {
	// Thread 1 reads a stripe, stalls, and re-reads after thread 0 has
	// committed a new version: the second transaction-begin must see a
	// consistent snapshot (no torn pairs).
	m, s := testSystem(2)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	// Two words on different lines, kept equal by every writer.
	const a, b = 0, 512
	var pairs [][2]uint64
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			for i := uint64(1); i <= 20; i++ {
				ex0.Atomic(func(tx tm.Tx) {
					tx.Store(a, i)
					tx.Store(b, i)
				})
				p.Elapse(300)
			}
		},
		func(p *machine.Proc) {
			for i := 0; i < 20; i++ {
				var x, y uint64
				ex1.Atomic(func(tx tm.Tx) {
					x = tx.Load(a)
					p.Elapse(200) // widen the window for a racing writer
					y = tx.Load(b)
				})
				pairs = append(pairs, [2]uint64{x, y})
				p.Elapse(100)
			}
		},
	})
	for _, pr := range pairs {
		if pr[0] != pr[1] {
			t.Fatalf("torn read: %v", pr)
		}
	}
	if s.Stats().SWAborts == 0 {
		t.Log("note: no aborts occurred; the race window may need widening")
	}
}

func TestWriteLockConflictRetries(t *testing.T) {
	m, s := testSystem(2)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			for i := 0; i < 30; i++ {
				ex0.Atomic(func(tx tm.Tx) { tx.Store(0, tx.Load(0)+1) })
			}
		},
		func(p *machine.Proc) {
			for i := 0; i < 30; i++ {
				ex1.Atomic(func(tx tm.Tx) { tx.Store(0, tx.Load(0)+1) })
			}
		},
	})
	if got := m.Mem.Read64(0); got != 60 {
		t.Fatalf("counter = %d, want 60", got)
	}
}

func TestClockAdvancesPerWriteCommit(t *testing.T) {
	m, s := testSystem(1)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		for i := 0; i < 7; i++ {
			ex.Atomic(func(tx tm.Tx) { tx.Store(uint64(i)*64, 1) })
		}
	}})
	if s.clock != 7 {
		t.Fatalf("clock = %d, want 7", s.clock)
	}
}

func TestName(t *testing.T) {
	_, s := testSystem(1)
	if s.Name() != "tl2" {
		t.Fatal("name wrong")
	}
}

func TestNestedPartialAbortOverRedoLog(t *testing.T) {
	m, s := testSystem(1)
	ex := s.Exec(m.Proc(0))
	m.Mem.Write64(0, 100)
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(0, 1) // pre-nest buffered write
			ok := tx.Nested(func() {
				tx.Store(0, 2)  // overwrite inside the nest
				tx.Store(64, 3) // fresh write inside the nest
				tx.Abort()
			})
			if ok {
				t.Error("nest should have aborted")
			}
			if tx.Load(0) != 1 {
				t.Errorf("redo value = %d, want the pre-nest 1", tx.Load(0))
			}
			if tx.Load(64) != 0 {
				t.Error("nested fresh write survived its abort")
			}
		})
	}})
	if m.Mem.Read64(0) != 1 || m.Mem.Read64(64) != 0 {
		t.Fatalf("memory = %d/%d, want 1/0", m.Mem.Read64(0), m.Mem.Read64(64))
	}
}

func TestNestedCommitFoldsIntoParent(t *testing.T) {
	m, s := testSystem(1)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			outer := tx.Nested(func() {
				tx.Store(0, 5)
				inner := tx.Nested(func() { tx.Store(64, 6) })
				if !inner {
					t.Error("inner nest failed")
				}
				// Now abort nothing: both fold into the parent.
			})
			if !outer {
				t.Error("outer nest failed")
			}
		})
	}})
	if m.Mem.Read64(0) != 5 || m.Mem.Read64(64) != 6 {
		t.Fatal("nested commits lost")
	}
}
