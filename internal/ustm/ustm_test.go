package ustm

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/tmtest"
)

// ufoAt returns the UFO bits of the line holding addr.
func ufoAt(m *machine.Machine, addr uint64) mem.UFOBits {
	return mem.UFOOf(m.Mem.Record(mem.LineOf(addr)))
}

func testMachine(procs int) *machine.Machine {
	p := machine.DefaultParams(procs)
	p.MemBytes = 1 << 22
	p.Quantum = 0
	p.MaxSteps = 3_000_000
	return machine.New(p)
}

func testSTM(m *machine.Machine, strong bool) *STM {
	cfg := DefaultConfig()
	cfg.OTableRows = 1 << 12
	cfg.StrongAtomicity = strong
	return New(m, cfg)
}

func TestSingleThreadCommit(t *testing.T) {
	m := testMachine(1)
	s := testSTM(m, true)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(0, 11)
			tx.Store(64, 22)
			if tx.Load(0) != 11 {
				t.Error("tx does not see own write")
			}
		})
	}})
	if m.Mem.Read64(0) != 11 || m.Mem.Read64(64) != 22 {
		t.Fatal("commit lost writes")
	}
	if m.Count.SWCommits != 1 {
		t.Fatalf("SWCommits = %d", m.Count.SWCommits)
	}
	// All otable entries must be released and UFO bits cleared.
	if ufoAt(m, 0) != mem.UFONone || ufoAt(m, 64) != mem.UFONone {
		t.Fatal("UFO bits leaked after commit")
	}
}

func TestStrongAtomicityInstallsUFOBitsDuringTx(t *testing.T) {
	m := testMachine(1)
	s := testSTM(m, true)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Load(0)      // read barrier: fault-on-write
			tx.Store(64, 1) // write barrier: fault-on-read|write
			if ufoAt(m, 0) != mem.UFOFaultOnWrite {
				t.Errorf("read-held line UFO = %v", ufoAt(m, 0))
			}
			if ufoAt(m, 64) != mem.UFOFaultAll {
				t.Errorf("write-held line UFO = %v", ufoAt(m, 64))
			}
		})
	}})
}

func TestWeakModeInstallsNoUFOBits(t *testing.T) {
	m := testMachine(1)
	s := testSTM(m, false)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(0, 1)
			if ufoAt(m, 0) != mem.UFONone {
				t.Error("weak USTM set UFO bits")
			}
		})
	}})
}

func TestReadUpgradeToWrite(t *testing.T) {
	m := testMachine(1)
	s := testSTM(m, true)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			_ = tx.Load(0)
			if ufoAt(m, 0) != mem.UFOFaultOnWrite {
				t.Error("after read: want fault-on-write")
			}
			tx.Store(0, 5)
			if ufoAt(m, 0) != mem.UFOFaultAll {
				t.Error("after upgrade: want fault-all")
			}
		})
	}})
	if m.Mem.Read64(0) != 5 {
		t.Fatal("upgraded write lost")
	}
}

func TestAbortRollsBackEagerWrites(t *testing.T) {
	m := testMachine(1)
	s := testSTM(m, true)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		m.Mem.Write64(0, 100)
		first := true
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(0, 200)
			if first {
				first = false
				// Eager versioning: the write is already in memory.
				if m.Mem.Read64(0) != 200 {
					t.Error("eager write not in place")
				}
				tx.Abort()
			}
		})
	}})
	if m.Mem.Read64(0) != 200 {
		t.Fatalf("final value %d, want 200 (second attempt commits)", m.Mem.Read64(0))
	}
	if m.Count.SWAborts != 1 || m.Count.SWCommits != 1 {
		t.Fatalf("stats = %v", tm.StatsOf(&m.Count))
	}
}

// TestSWAbortNamesItsReason: the tx-abort of an explicit tx.Abort()
// names its reason, explicit, and not a conflict, and marks its attempt
// as software.
func TestSWAbortNamesItsReason(t *testing.T) {
	m := testMachine(1)
	s := testSTM(m, true)
	ex := s.Exec(m.Proc(0))
	var log tmtest.EventLog
	m.Observe(machine.KindSet(machine.TraceTxAbort), &log)
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		first := true
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(0, 1)
			if first {
				first = false
				tx.Abort()
			}
		})
	}})
	if len(log.Events) != 1 || log.Events[0].Reason != machine.AbortExplicit || !log.Events[0].SW() {
		t.Fatalf("events = %v, want one software tx-abort for an explicit reason", log.Events)
	}
}

func TestConflictYoungerWriterIsKilled(t *testing.T) {
	m := testMachine(2)
	s := testSTM(m, true)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	var order []int
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			// Older transaction: long-running, eventually writes line 0.
			ex0.Atomic(func(tx tm.Tx) {
				p.Elapse(2000) // let the younger tx grab the line first
				tx.Store(0, 1)
			})
			order = append(order, 0)
		},
		func(p *machine.Proc) {
			p.Elapse(100)
			ex1.Atomic(func(tx tm.Tx) {
				tx.Store(0, 2)
				p.Elapse(10_000) // hold it long enough to be the victim
			})
			order = append(order, 1)
		},
	})
	if m.Count.SWAborts == 0 {
		t.Fatal("expected the younger transaction to be killed at least once")
	}
	if len(order) != 2 || order[0] != 0 {
		t.Fatalf("commit order %v, want older first", order)
	}
	if m.Count.SWCommits != 2 {
		t.Fatalf("SWCommits = %d", m.Count.SWCommits)
	}
}

func TestConflictYoungerRequesterStalls(t *testing.T) {
	m := testMachine(2)
	s := testSTM(m, true)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	var youngerSawCommitted uint64
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex0.Atomic(func(tx tm.Tx) {
				tx.Store(0, 42) // older grabs the line immediately
				p.Elapse(5000)
			})
		},
		func(p *machine.Proc) {
			p.Elapse(500)
			ex1.Atomic(func(tx tm.Tx) {
				youngerSawCommitted = tx.Load(0) // must stall until older commits
			})
		},
	})
	if youngerSawCommitted != 42 {
		t.Fatalf("younger read %d, want 42 (committed value)", youngerSawCommitted)
	}
	if m.Count.SWStalls == 0 {
		t.Fatal("expected the younger transaction to stall")
	}
}

func TestReadSharing(t *testing.T) {
	m := testMachine(2)
	s := testSTM(m, true)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	m.Mem.Write64(0, 9)
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex0.Atomic(func(tx tm.Tx) {
				if tx.Load(0) != 9 {
					t.Error("reader 0 wrong value")
				}
				p.Elapse(3000)
			})
		},
		func(p *machine.Proc) {
			p.Elapse(500)
			ex1.Atomic(func(tx tm.Tx) {
				if tx.Load(0) != 9 {
					t.Error("reader 1 wrong value")
				}
			})
		},
	})
	if m.Count.SWAborts != 0 || m.Count.SWStalls != 0 {
		t.Fatalf("read sharing caused conflicts: %v", tm.StatsOf(&m.Count))
	}
}

// TestPrivatizationAnomalyWeak reproduces Figure 2a's lost update: a
// doomed transaction's rollback can clobber a non-transactional write
// that happened after privatization — when the STM is weakly atomic.
// The strongly-atomic variant (next test) serializes the nonT write
// behind the rollback, preserving it.
func TestPrivatizationAnomalyWeak(t *testing.T) {
	if got := privatizationFinalValue(t, false); got != 100 {
		t.Fatalf("weak USTM: final = %d; expected the anomaly (rollback clobbers the nonT write back to 100)", got)
	}
}

func TestPrivatizationSafeUnderStrongAtomicity(t *testing.T) {
	if got := privatizationFinalValue(t, true); got != 777 {
		t.Fatalf("strong USTM: final = %d, want 777 (nonT write preserved)", got)
	}
}

// privatizationFinalValue runs the Figure 2a scenario and returns the
// final value of the contended word. Proc 1's transaction writes the word
// and is killed; proc 0 then writes 777 non-transactionally while proc
// 1's rollback is still pending.
func privatizationFinalValue(t *testing.T, strong bool) uint64 {
	t.Helper()
	m := testMachine(2)
	s := testSTM(m, strong)
	ex1 := s.Exec(m.Proc(1))
	m.Mem.Write64(0, 100)
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			p.Elapse(2000)
			// Kill proc 1's transaction directly (standing in for a
			// privatizing transaction), then immediately write the word
			// non-transactionally. The victim has not rolled back yet.
			victim := s.Thread(m.Proc(1))
			me := s.Thread(p)
			me.age = 0 // pretend to be the oldest
			me.kill(victim, 0)
			if strong {
				NTStore(s, p, 0, 777)
			} else {
				for {
					if out := p.NTWrite(0, 777); out.Kind == machine.OK {
						break
					}
					p.Elapse(10)
				}
			}
		},
		func(p *machine.Proc) {
			done := false
			ex1.Atomic(func(tx tm.Tx) {
				if done {
					return // commit empty on the re-execution
				}
				done = true
				tx.Store(0, 555)
				p.Elapse(20_000) // window in which the kill + nonT write land
			})
		},
	})
	return m.Mem.Read64(0)
}

func TestNTStallsUntilCommit(t *testing.T) {
	m := testMachine(2)
	s := testSTM(m, true)
	ex0 := s.Exec(m.Proc(0))
	var observed uint64
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex0.Atomic(func(tx tm.Tx) {
				tx.Store(0, 321)
				p.Elapse(5000)
			})
		},
		func(p *machine.Proc) {
			p.Elapse(500)
			observed = NTLoad(s, p, 0) // faults until the tx commits
		},
	})
	if observed != 321 {
		t.Fatalf("nonT read observed %d, want the committed 321", observed)
	}
	if m.Count.NTStalls == 0 {
		t.Fatal("nonT access did not stall")
	}
}

func TestRetryWaitsForWriter(t *testing.T) {
	m := testMachine(2)
	s := testSTM(m, true)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	var got uint64
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex0.Atomic(func(tx tm.Tx) {
				if tx.Load(0) == 0 {
					tx.Retry() // wait until someone publishes a value
				}
				got = tx.Load(0)
			})
		},
		func(p *machine.Proc) {
			p.Elapse(20_000)
			ex1.Atomic(func(tx tm.Tx) {
				tx.Store(0, 5)
			})
		},
	})
	if got != 5 {
		t.Fatalf("retrying tx read %d, want 5", got)
	}
	if m.Count.RetryWaits == 0 {
		t.Fatal("Retry not counted")
	}
}

// TestMaskedNTAccessOnRetriersLine holds the two arms of the
// non-transactional fault handler's masked path (Section 6), which share
// one loop: on a line whose every owner is retrying, a faulting load reads
// the committed value and leaves the retriers blocked, and a faulting
// store lands and wakes each of them. A retrier's line is normally
// fault-on-write only; fault-all protection stands in for the leftover
// edge that makes a load fault there.
func TestMaskedNTAccessOnRetriersLine(t *testing.T) {
	m := testMachine(3)
	s := testSTM(m, true)
	m.Mem.Write64(8, 42) // word 1 of line 0
	retriers := []*Thread{s.Thread(m.Proc(0)), s.Thread(m.Proc(1))}
	var got [2]uint64
	retry := func(i int) func(*machine.Proc) {
		ex := s.Exec(m.Proc(i))
		return func(p *machine.Proc) {
			ex.Atomic(func(tx tm.Tx) {
				if tx.Load(0) == 0 {
					tx.Retry()
				}
				got[i] = tx.Load(0)
			})
		}
	}
	m.Run([]func(*machine.Proc){retry(0), retry(1), func(p *machine.Proc) {
		p.Elapse(20_000)
		for i, r := range retriers {
			if r.status != statusRetrying {
				t.Fatalf("proc %d is not retrying", i)
			}
		}
		p.SetUFO(0, mem.UFOFaultAll)
		faults := m.Count.UFOFaults
		if v := NTLoad(s, p, 8); v != 42 {
			t.Errorf("masked load read %d, want the committed 42", v)
		}
		for i, r := range retriers {
			if r.status != statusRetrying || r.wakePending {
				t.Errorf("masked load woke proc %d", i)
			}
		}
		NTStore(s, p, 0, 5)
		for i, r := range retriers {
			if !r.wakePending {
				t.Errorf("masked store did not wake proc %d", i)
			}
		}
		if n := m.Count.UFOFaults - faults; n != 2 || m.Count.NTStalls != 0 {
			t.Errorf("%d faults and %d stalls, want 2 masked faults and no stall", n, m.Count.NTStalls)
		}
	}})
	if got != [2]uint64{5, 5} {
		t.Fatalf("retriers read %v after waking, want the stored 5", got)
	}
}

func TestOTableChainCollisions(t *testing.T) {
	m := testMachine(1)
	cfg := DefaultConfig()
	cfg.OTableRows = 2 // force heavy chaining
	s := New(m, cfg)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			for i := uint64(0); i < 16; i++ {
				tx.Store(i*64, i)
			}
		})
	}})
	for i := uint64(0); i < 16; i++ {
		if m.Mem.Read64(i*64) != i {
			t.Fatalf("line %d lost under chaining", i)
		}
	}
	// All entries released.
	for i := range s.ot.Rows {
		if s.ot.Rows[i].head != nil {
			t.Fatalf("row %d retains entries", i)
		}
	}
}

func TestBadOTableSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(testMachine(1), Config{OTableRows: 1000})
}

func TestSystemNames(t *testing.T) {
	m := testMachine(1)
	if testSTM(m, true).Name() != "ustm+ufo" || testSTM(m, false).Name() != "ustm" {
		t.Fatal("names wrong")
	}
}

func TestOwnerSemantics(t *testing.T) {
	m := testMachine(1)
	s := testSTM(m, true)
	th := s.Thread(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		th.BeginSW(m.NextAge())
		th.barrier(0, false)
		if owner, write := s.Owner(0); owner != 0 || write {
			t.Errorf("read entry: Owner = %d, %v; want 0, false", owner, write)
		}
		th.barrier(64, true)
		if owner, write := s.Owner(1); owner != 0 || !write {
			t.Errorf("write entry: Owner = %d, %v; want 0, true", owner, write)
		}
		if owner, _ := s.Owner(2); owner != -1 {
			t.Errorf("unowned line: Owner = %d, want -1", owner)
		}
		if !th.EndSW(false) {
			t.Error("commit failed")
		}
	}})
}

func TestMultiThreadedCounterInvariant(t *testing.T) {
	// Four threads each increment a shared counter 50 times; the final
	// value must be exactly 200 under any interleaving.
	m := testMachine(4)
	s := testSTM(m, true)
	var execs []tm.Exec
	for i := 0; i < 4; i++ {
		execs = append(execs, s.Exec(m.Proc(i)))
	}
	var ws []func(*machine.Proc)
	for i := 0; i < 4; i++ {
		ex := execs[i]
		ws = append(ws, func(p *machine.Proc) {
			for n := 0; n < 50; n++ {
				ex.Atomic(func(tx tm.Tx) {
					tx.Store(0, tx.Load(0)+1)
				})
				p.Elapse(uint64(10 + p.Rand().Intn(100)))
			}
		})
	}
	m.Run(ws)
	if got := m.Mem.Read64(0); got != 200 {
		t.Fatalf("counter = %d, want 200", got)
	}
	if m.Count.SWCommits != 200 {
		t.Fatalf("SWCommits = %d, want 200", m.Count.SWCommits)
	}
}

func TestDisjointThreadsNoConflicts(t *testing.T) {
	m := testMachine(4)
	s := testSTM(m, true)
	arena := m.Mem.Sbrk(4 * 4096)
	var ws []func(*machine.Proc)
	for i := 0; i < 4; i++ {
		ex := s.Exec(m.Proc(i))
		base := arena + uint64(i)*4096
		ws = append(ws, func(p *machine.Proc) {
			for n := uint64(0); n < 20; n++ {
				ex.Atomic(func(tx tm.Tx) {
					tx.Store(base+n*64, n)
				})
			}
		})
	}
	m.Run(ws)
	if m.Count.SWAborts != 0 {
		t.Fatalf("disjoint workloads aborted %d times", m.Count.SWAborts)
	}
}

// TestFigure2bLostWriteUnderLineGranularity reproduces the paper's
// Figure 2b: with line-granular write handling and weak atomicity, a
// non-transactional write to a *neighboring word of the same line* is
// destroyed by an aborting transaction's rollback. Strong atomicity
// (next test) serializes the neighbor write behind the transaction.
func TestFigure2bLostWriteUnderLineGranularity(t *testing.T) {
	if got := figure2bNeighborValue(t, false); got != 0 {
		t.Fatalf("weak line-granular USTM: neighbor word = %d; expected the lost write (0)", got)
	}
}

func TestFigure2bSafeUnderStrongAtomicity(t *testing.T) {
	if got := figure2bNeighborValue(t, true); got != 999 {
		t.Fatalf("strong line-granular USTM: neighbor word = %d, want 999", got)
	}
}

// figure2bNeighborValue: proc 1's transaction writes word 0 of a line
// and aborts; mid-flight, proc 0 writes word 1 of the same line
// non-transactionally. Returns the final value of word 1.
func figure2bNeighborValue(t *testing.T, strong bool) uint64 {
	t.Helper()
	m := testMachine(2)
	cfg := DefaultConfig()
	cfg.OTableRows = 1 << 12
	cfg.StrongAtomicity = strong
	cfg.LineGranularUndo = true
	s := New(m, cfg)
	ex1 := s.Exec(m.Proc(1))
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			p.Elapse(2000)
			if strong {
				NTStore(s, p, 8, 999) // word 1 of line 0
			} else {
				for {
					if out := p.NTWrite(8, 999); out.Kind == machine.OK {
						break
					}
					p.Elapse(10)
				}
			}
		},
		func(p *machine.Proc) {
			doomed := true
			ex1.Atomic(func(tx tm.Tx) {
				if !doomed {
					return
				}
				doomed = false
				tx.Store(0, 555) // word 0: checkpoints the whole line
				p.Elapse(20_000) // the neighbor write lands here
				tx.Abort()       // rollback restores all 8 words
			})
		},
	})
	return m.Mem.Read64(8)
}

func TestLineGranularUndoRestoresWholeLine(t *testing.T) {
	m := testMachine(1)
	cfg := DefaultConfig()
	cfg.OTableRows = 1 << 12
	cfg.LineGranularUndo = true
	s := New(m, cfg)
	ex := s.Exec(m.Proc(0))
	for w := uint64(0); w < 8; w++ {
		m.Mem.Write64(w*8, 100+w)
	}
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		first := true
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(0, 1)
			tx.Store(16, 2) // same line: no second checkpoint
			if first {
				first = false
				tx.Abort()
			}
		})
	}})
	// After the abort + successful retry, words 0 and 16 hold the retry's
	// values and the rest hold their originals.
	if m.Mem.Read64(0) != 1 || m.Mem.Read64(16) != 2 {
		t.Fatal("retry writes lost")
	}
	for _, w := range []uint64{1, 3, 4, 5, 6, 7} {
		if got := m.Mem.Read64(w * 8); got != 100+w {
			t.Fatalf("word %d = %d, want %d", w, got, 100+w)
		}
	}
}

func TestNestedPartialAbort(t *testing.T) {
	m := testMachine(1)
	s := testSTM(m, true)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(0, 1)
			// Two levels of nesting: the inner one aborts, the outer one
			// commits.
			ok := tx.Nested(func() {
				tx.Store(64, 2)
				inner := tx.Nested(func() {
					tx.Store(128, 3)
					tx.Abort()
				})
				if inner {
					t.Error("inner nest should have aborted")
				}
				if tx.Load(128) != 0 {
					t.Error("inner nest effects visible after its abort")
				}
			})
			if !ok {
				t.Error("outer nest should have committed")
			}
		})
	}})
	if m.Mem.Read64(0) != 1 || m.Mem.Read64(64) != 2 || m.Mem.Read64(128) != 0 {
		t.Fatalf("state = %d/%d/%d, want 1/2/0",
			m.Mem.Read64(0), m.Mem.Read64(64), m.Mem.Read64(128))
	}
}

func TestNestedAbortKeepsOwnershipUntilEnd(t *testing.T) {
	// Lazy release: a line written only inside an aborted nest stays
	// protected (and otable-owned) until the transaction ends.
	m := testMachine(1)
	s := testSTM(m, true)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Nested(func() {
				tx.Store(256, 9)
				tx.Abort()
			})
			if ufoAt(m, 256) == mem.UFONone {
				t.Error("ownership released at nested abort (should be lazy)")
			}
		})
	}})
	if ufoAt(m, 256) != mem.UFONone {
		t.Fatal("ownership leaked past commit")
	}
	if m.Mem.Read64(256) != 0 {
		t.Fatal("aborted nested write leaked")
	}
}

func TestWholeTxAbortInsideNestUnwindsFully(t *testing.T) {
	m := testMachine(2)
	s := testSTM(m, true)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	// A conflict kill arriving while inside a nest must unwind the whole
	// transaction (not just the nest) and still converge.
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex0.Atomic(func(tx tm.Tx) {
				p.Elapse(2000)
				tx.Store(0, tx.Load(0)+1) // older: will kill the younger
			})
		},
		func(p *machine.Proc) {
			p.Elapse(100)
			ex1.Atomic(func(tx tm.Tx) {
				tx.Nested(func() {
					tx.Store(0, tx.Load(0)+10)
					p.Elapse(10_000) // hold the line; get killed mid-nest
				})
			})
		},
	})
	if got := m.Mem.Read64(0); got != 11 {
		t.Fatalf("value = %d, want 11", got)
	}
}

// otableStats summarizes the ownership table's occupancy.
type otableStats struct {
	Rows     int
	Entries  int
	MaxChain int
	Locked   int // rows whose head is locked (mid-update)
}

func statsOf(s *STM) otableStats {
	st := otableStats{Rows: len(s.ot.Rows)}
	for i := range s.ot.Rows {
		n := 0
		for e := s.ot.Rows[i].head; e != nil; e = e.next {
			n++
		}
		if s.ot.Rows[i].locked {
			st.Locked++
		}
		st.Entries += n
		st.MaxChain = max(st.MaxChain, n)
	}
	return st
}

func TestOTableStats(t *testing.T) {
	m := testMachine(1)
	cfg := DefaultConfig()
	cfg.OTableRows = 4 // force chains
	s := New(m, cfg)
	th := s.Thread(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		th.BeginSW(m.NextAge())
		for i := uint64(0); i < 12; i++ {
			th.barrier(i*64, true)
		}
		st := statsOf(s)
		if st.Rows != 4 || st.Entries != 12 {
			t.Errorf("stats = %+v", st)
		}
		if st.MaxChain < 3 {
			t.Errorf("MaxChain = %d, expected chaining with 4 rows", st.MaxChain)
		}
		th.EndSW(false)
	}})
	if st := statsOf(s); st.Entries != 0 {
		t.Fatalf("entries leaked: %+v", st)
	}
}

// TestReleasedArenaOTableIsBlank: a run killed mid-transaction leaves
// records in the otable, and under contention locked rows; an STM built
// on the released arena is handed the same rows, with neither.
func TestReleasedArenaOTableIsBlank(t *testing.T) {
	params := machine.DefaultParams(2)
	params.MemBytes = 1 << 20
	cfg := DefaultConfig()
	cfg.OTableRows = 1 << 6 // long chains: rows get locked under contention
	arena := new(machine.Arena)
	m := arena.New(params)
	s := New(m, cfg)
	software := func(p *machine.Proc) {
		ex := s.Exec(p)
		for i := uint64(0); i < 40; i++ {
			ex.Atomic(func(tx tm.Tx) {
				for l := i; l < i+6; l++ {
					tx.Store(l%256*mem.LineBytes, tx.Load(l%256*mem.LineBytes)+1)
				}
				if i == 30 && p.ID() == 0 {
					panic("killed mid-transaction")
				}
			})
		}
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("the run was not killed")
			}
		}()
		m.Run([]func(*machine.Proc){software, software})
	}()
	if st := statsOf(s); st.Entries == 0 {
		t.Fatal("the killed run left no otable entries: the scenario tests nothing")
	}
	m.Release()
	s2 := New(arena.New(params), cfg)
	if s2.ot.Table != s.ot.Table {
		t.Fatal("the new STM did not get the arena's table")
	}
	if st := statsOf(s2); st.Rows != cfg.OTableRows || st.Entries != 0 || st.Locked != 0 {
		t.Fatalf("reused otable %+v, want %d blank rows", st, cfg.OTableRows)
	}
}

// TestUpgraderRekillsARejoinedReader is the drain-loop deadlock: an old
// upgrader A waits, owner by owner, for the readers it killed to leave
// line L. Its kill of V was a no-op, because a third transaction X had
// killed V first; while A waits on the slow reader W, V unwinds, outlives
// X, restarts with its old age and rejoins L's read entry. A must kill
// the rejoined V again: otherwise V stalls on A to write L, A polls for
// V to leave, W waits for its killer A, and no processor ever blocks.
func TestUpgraderRekillsARejoinedReader(t *testing.T) {
	const L, M, N = 0, 64, 128
	p := machine.DefaultParams(4)
	p.MemBytes = 1 << 22
	p.Quantum = 0
	p.MaxSteps = 1_500 // the run takes ~330 steps; the deadlock never ends
	m := machine.New(p)
	s := testSTM(m, false)
	a, w, x, v := s.Exec(m.Proc(0)), s.Exec(m.Proc(1)), s.Exec(m.Proc(2)), s.Exec(m.Proc(3))
	halt := sim.Catch(func() {
		m.Run([]func(*machine.Proc){
			func(p *machine.Proc) { // A: the oldest; reads L, later upgrades
				a.Atomic(func(tx tm.Tx) {
					tx.Load(L)
					p.ElapseUntil(3000)
					tx.Store(L, 1)
				})
			},
			func(p *machine.Proc) { // W: a reader of L, slow to see its kill
				p.Elapse(100)
				w.Atomic(func(tx tm.Tx) {
					tx.Load(L)
					p.Elapse(7000)
					tx.Load(N)
				})
			},
			func(p *machine.Proc) { // X: kills V over M
				p.Elapse(200)
				x.Atomic(func(tx tm.Tx) {
					p.ElapseUntil(1500)
					tx.Store(M, 2)
				})
			},
			func(p *machine.Proc) { // V: the youngest; reads L, owns M, then writes L
				p.Elapse(300)
				v.Atomic(func(tx tm.Tx) {
					tx.Load(L)
					tx.Store(M, 3)
					p.ElapseUntil(4000)
					tx.Store(L, 4)
				})
			},
		})
	})
	if halt != nil {
		t.Fatal(halt)
	}
	if got := m.Count.SWCommits; got != 4 {
		t.Fatalf("%d of 4 transactions committed", got)
	}
}
