package seq

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/tm"
)

func testMachine(procs int) *machine.Machine {
	p := machine.DefaultParams(procs)
	p.MemBytes = 1 << 20
	p.Quantum = 0
	p.MaxSteps = 10_000_000
	return machine.New(p)
}

func TestSequentialDirectExecution(t *testing.T) {
	m := testMachine(1)
	s := New(m, Sequential)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(0, 5)
			if tx.Load(0) != 5 {
				t.Error("read-own-write failed")
			}
		})
		ex.Store(64, 6)
		if ex.Load(64) != 6 {
			t.Error("nonT round trip failed")
		}
	}})
	if m.Count.SWCommits != 1 {
		t.Fatalf("stats = %v", tm.StatsOf(&m.Count))
	}
}

func TestGlobalLockMutualExclusion(t *testing.T) {
	m := testMachine(4)
	s := New(m, GlobalLock)
	var inside, maxInside int
	var ws []func(*machine.Proc)
	for i := 0; i < 4; i++ {
		ex := s.Exec(m.Proc(i))
		ws = append(ws, func(p *machine.Proc) {
			for n := 0; n < 25; n++ {
				ex.Atomic(func(tx tm.Tx) {
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					tx.Store(0, tx.Load(0)+1)
					p.Elapse(uint64(50 + p.Rand().Intn(100)))
					inside--
				})
				p.Elapse(uint64(10 + p.Rand().Intn(50)))
			}
		})
	}
	m.Run(ws)
	if maxInside != 1 {
		t.Fatalf("critical-section occupancy reached %d, want 1", maxInside)
	}
	if got := m.Mem.Read64(0); got != 100 {
		t.Fatalf("counter = %d, want 100", got)
	}
}

func TestGlobalLockSerializesButAllowsProgress(t *testing.T) {
	m := testMachine(2)
	s := New(m, GlobalLock)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex0.Atomic(func(tx tm.Tx) {
				tx.Store(0, 1)
				p.Elapse(5_000)
			})
		},
		func(p *machine.Proc) {
			p.Elapse(1_000) // arrive once the lock is firmly held
			start := p.Now()
			ex1.Atomic(func(tx tm.Tx) { tx.Store(64, 2) })
			if p.Now()-start < 3_000 {
				t.Error("second thread did not wait for the lock")
			}
		},
	})
	if m.Mem.Read64(0) != 1 || m.Mem.Read64(64) != 2 {
		t.Fatal("writes lost")
	}
}

func TestRetryPollsUnderLock(t *testing.T) {
	m := testMachine(2)
	s := New(m, GlobalLock)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	var got uint64
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex0.Atomic(func(tx tm.Tx) {
				if tx.Load(0) == 0 {
					tx.Retry() // must drop the lock while polling
				}
				got = tx.Load(0)
			})
		},
		func(p *machine.Proc) {
			p.Elapse(10_000)
			ex1.Atomic(func(tx tm.Tx) { tx.Store(0, 3) })
		},
	})
	if got != 3 {
		t.Fatalf("consumer read %d", got)
	}
}

// TestSeqAbortUndoesStores: a body that stores in place and then aborts —
// explicitly, through an aborted nest, or to wait with Retry — re-runs
// from the memory it started from, on both baselines.
func TestSeqAbortUndoesStores(t *testing.T) {
	for _, mode := range []Mode{Sequential, GlobalLock} {
		for name, abort := range map[string]func(tm.Tx){
			"abort":  func(tx tm.Tx) { tx.Abort() },
			"nested": func(tx tm.Tx) { tx.Nested(tx.Abort) },
			"retry":  func(tx tm.Tx) { tx.Retry() },
		} {
			m := testMachine(1)
			s := New(m, mode)
			ex := s.Exec(m.Proc(0))
			m.Run([]func(*machine.Proc){func(*machine.Proc) {
				first := true
				ex.Atomic(func(tx tm.Tx) {
					tx.Store(0, tx.Load(0)+1)
					tx.Store(0, tx.Load(0)+1)
					if first {
						first = false
						abort(tx)
					}
				})
			}})
			if got := m.Mem.Read64(0); got != 2 {
				t.Errorf("%s/%s: word = %d, want 2: the aborted attempt's stores must be undone", s.Name(), name, got)
			}
		}
	}
}

func TestNames(t *testing.T) {
	m := testMachine(1)
	if New(m, Sequential).Name() != "sequential" || New(m, GlobalLock).Name() != "global-lock" {
		t.Fatal("names wrong")
	}
}
