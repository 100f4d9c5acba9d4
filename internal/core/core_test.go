package core

import (
	"reflect"
	"testing"

	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/tm"
	"repro/internal/ustm"
)

func testMachine(procs int) *machine.Machine {
	p := machine.DefaultParams(procs)
	p.MemBytes = 1 << 22
	p.Quantum = 0
	p.MaxSteps = 5_000_000
	return machine.New(p)
}

func testHybrid(m *machine.Machine) *System {
	cfg := ustm.DefaultConfig()
	cfg.OTableRows = 1 << 12
	return New(m, cfg, Policy{}, cm.KindExponential)
}

func TestSmallTxCommitsInHardware(t *testing.T) {
	m := testMachine(1)
	s := testHybrid(m)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		for i := 0; i < 10; i++ {
			ex.Atomic(func(tx tm.Tx) {
				tx.Store(0, tx.Load(0)+1)
			})
		}
	}})
	st := tm.StatsOf(&m.Count)
	if st.HWCommits != 10 || st.SWCommits != 0 || st.Failovers != 0 {
		t.Fatalf("stats = %v: small transactions must all commit in hardware", st)
	}
	if m.Mem.Read64(0) != 10 {
		t.Fatalf("counter = %d", m.Mem.Read64(0))
	}
}

func TestOverflowFailsOverToSoftware(t *testing.T) {
	params := machine.DefaultParams(1)
	params.MemBytes = 1 << 22
	params.Quantum = 0
	params.L1Bytes = 8 * 64 // 8 lines: tiny transactional capacity
	params.L1Ways = 1
	params.MaxSteps = 5_000_000
	m := machine.New(params)
	s := testHybrid(m)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			for i := uint64(0); i < 32; i++ {
				tx.Store(i*64, i)
			}
		})
	}})
	st := tm.StatsOf(&m.Count)
	if st.Failovers != 1 || st.SWCommits != 1 || st.HWCommits != 0 {
		t.Fatalf("stats = %v: overflowing tx must fail over exactly once", st)
	}
	for i := uint64(0); i < 32; i++ {
		if m.Mem.Read64(i*64) != i {
			t.Fatalf("word %d lost", i)
		}
	}
	if m.Count.HWAbortsByReason[machine.AbortOverflow] == 0 {
		t.Fatal("no overflow abort recorded")
	}
}

func TestSyscallFailsOver(t *testing.T) {
	m := testMachine(1)
	s := testHybrid(m)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Syscall()
			tx.Store(0, 1)
		})
	}})
	st := tm.StatsOf(&m.Count)
	if st.Failovers != 1 || st.SWCommits != 1 {
		t.Fatalf("stats = %v", st)
	}
	if m.Mem.Read64(0) != 1 {
		t.Fatal("post-syscall write lost")
	}
}

func TestHWAndSWTransactionsCoexist(t *testing.T) {
	// Proc 0 runs a long software transaction (forced via syscall) over
	// line A; proc 1 runs many small hardware transactions over line B.
	// The hardware transactions must keep committing in hardware while
	// the software transaction is in flight — the hybrid's headline
	// property.
	m := testMachine(2)
	s := testHybrid(m)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	const lineA, lineB = 0, 512 // distinct lines, both in the reserved page
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex0.Atomic(func(tx tm.Tx) {
				tx.Syscall() // force software
				tx.Store(lineA, 7)
				p.Elapse(50_000) // stay in flight a long time
			})
		},
		func(p *machine.Proc) {
			p.Elapse(2000) // start inside the software transaction's window
			for i := 0; i < 20; i++ {
				ex1.Atomic(func(tx tm.Tx) {
					tx.Store(lineB, tx.Load(lineB)+1)
				})
			}
		},
	})
	st := tm.StatsOf(&m.Count)
	if st.HWCommits != 20 {
		t.Fatalf("HWCommits = %d, want 20 (disjoint HW txs must not be disturbed)", st.HWCommits)
	}
	if st.SWCommits != 1 {
		t.Fatalf("SWCommits = %d", st.SWCommits)
	}
	if m.Mem.Read64(lineB) != 20 || m.Mem.Read64(lineA) != 7 {
		t.Fatal("values wrong")
	}
}

func TestHWTxKilledBySTMConflictRetriesInHW(t *testing.T) {
	// A hardware transaction conflicting with a software transaction is
	// killed by the STM's UFO-bit installation, retries in hardware, and
	// eventually commits in hardware (never failing over on contention —
	// the paper's key policy).
	m := testMachine(2)
	s := testHybrid(m)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex0.Atomic(func(tx tm.Tx) {
				tx.Syscall() // software
				tx.Store(0, tx.Load(0)+100)
				p.Elapse(20_000)
			})
		},
		func(p *machine.Proc) {
			p.Elapse(3000) // collide with the SW tx mid-flight
			ex1.Atomic(func(tx tm.Tx) {
				tx.Store(0, tx.Load(0)+1)
			})
		},
	})
	st := tm.StatsOf(&m.Count)
	if st.HWCommits != 1 || st.SWCommits != 1 {
		t.Fatalf("stats = %v", st)
	}
	if st.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1 (conflicts must not cause failover)", st.Failovers)
	}
	if got := m.Mem.Read64(0); got != 101 {
		t.Fatalf("value = %d, want 101", got)
	}
	kills := m.Count.HWAbortsByReason[machine.AbortUFOKill] +
		m.Count.HWAbortsByReason[machine.AbortUFOFault] +
		m.Count.HWAbortsByReason[machine.AbortNonTConflict]
	if kills == 0 {
		t.Fatal("expected the HW tx to lose at least one round to the SW tx")
	}
}

func TestFailoverOnNthConflictPolicy(t *testing.T) {
	m := testMachine(2)
	cfg := ustm.DefaultConfig()
	cfg.OTableRows = 1 << 12
	s := New(m, cfg, Policy{FailoverOnNthConflict: 1}, cm.KindExponential) // fail over on the first conflict abort
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex0.Atomic(func(tx tm.Tx) {
				tx.Syscall()
				tx.Store(0, 1)
				p.Elapse(30_000)
			})
		},
		func(p *machine.Proc) {
			p.Elapse(3000)
			ex1.Atomic(func(tx tm.Tx) {
				tx.Store(0, tx.Load(0)+1)
			})
		},
	})
	if m.Count.Failovers < 2 {
		t.Fatalf("Failovers = %d, want ≥2 (policy forces conflicted tx to software)", m.Count.Failovers)
	}
	if m.Mem.Read64(0) != 2 {
		t.Fatalf("value = %d, want 2", m.Mem.Read64(0))
	}
}

func TestStallOnUFOFaultPolicy(t *testing.T) {
	m := testMachine(2)
	cfg := ustm.DefaultConfig()
	cfg.OTableRows = 1 << 12
	s := New(m, cfg, Policy{StallOnUFOFault: true}, cm.KindExponential)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex0.Atomic(func(tx tm.Tx) {
				tx.Syscall()
				tx.Store(0, 10)
				// Short enough for UFOFaultStallTries stalls to outlast.
				p.Elapse(2_500)
			})
		},
		func(p *machine.Proc) {
			p.Elapse(2000)
			ex1.Atomic(func(tx tm.Tx) {
				tx.Store(0, tx.Load(0)+1)
			})
		},
	})
	if m.Mem.Read64(0) != 11 {
		t.Fatalf("value = %d, want 11", m.Mem.Read64(0))
	}
	if m.Count.HWAbortsByReason[machine.AbortUFOFault] != 0 {
		t.Fatal("stall policy must avoid UFO-fault aborts here")
	}
}

func TestRetryAcrossHWAndSW(t *testing.T) {
	// A consumer transaction retries (failing over from hardware to
	// software to wait); a hardware producer commits the flag and must
	// wake it.
	m := testMachine(2)
	s := testHybrid(m)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	var got uint64
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex0.Atomic(func(tx tm.Tx) {
				if tx.Load(0) == 0 {
					tx.Retry()
				}
				got = tx.Load(0)
			})
		},
		func(p *machine.Proc) {
			p.Elapse(30_000)
			ex1.Atomic(func(tx tm.Tx) {
				tx.Store(0, 9)
			})
		},
	})
	if got != 9 {
		t.Fatalf("consumer read %d, want 9", got)
	}
	if m.Count.RetryWaits == 0 {
		t.Fatal("no retry recorded")
	}
}

// TestDefaultPolicyValues: the default policy — the zero Policy and the
// zero cm.Kind — is the paper's recommendation.
func TestDefaultPolicyValues(t *testing.T) {
	if UFOFaultStallTries != 16 {
		t.Fatalf("UFOFaultStallTries = %d, want 16", UFOFaultStallTries)
	}
	s := New(testMachine(1), ustm.DefaultConfig(), Policy{}, "")
	if want := cm.NewManager(cm.KindExponential); !reflect.DeepEqual(s.CM(), want) {
		t.Fatalf("default backoff manager = %+v, want %+v", s.CM(), want)
	}
	if s.Name() != "ufo-hybrid" {
		t.Fatal("name wrong")
	}
}
