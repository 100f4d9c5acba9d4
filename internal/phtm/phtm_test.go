package phtm

import (
	"testing"

	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/tm"
	"repro/internal/ustm"
)

func testSystem(procs int) (*machine.Machine, *System) {
	p := machine.DefaultParams(procs)
	p.MemBytes = 1 << 22
	p.Quantum = 0
	p.MaxSteps = 10_000_000
	m := machine.New(p)
	cfg := ustm.DefaultConfig()
	cfg.OTableRows = 1 << 12
	return m, New(m, cfg, cm.KindExponential)
}

func TestSmallTxCommitsInHardware(t *testing.T) {
	m, s := testSystem(1)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		for i := 0; i < 5; i++ {
			ex.Atomic(func(tx tm.Tx) { tx.Store(0, tx.Load(0)+1) })
		}
	}})
	if m.Count.HWCommits != 5 || m.Count.Failovers != 0 {
		t.Fatalf("stats = %v", tm.StatsOf(&m.Count))
	}
}

func TestSyscallEntersSTMPhase(t *testing.T) {
	m, s := testSystem(1)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Syscall()
			tx.Store(0, 7)
		})
	}})
	if m.Count.SWCommits != 1 || m.Count.Failovers != 1 {
		t.Fatalf("stats = %v", tm.StatsOf(&m.Count))
	}
	if s.numSTM != 0 || s.numMustSTM != 0 {
		t.Fatalf("phase counters leaked: %d/%d", s.numSTM, s.numMustSTM)
	}
	if m.Mem.Read64(0) != 7 {
		t.Fatal("write lost")
	}
}

// TestSTMPhaseDragsHardwareTxToSoftware checks PhTM's defining pathology:
// while one transaction runs in software, concurrently started
// transactions cannot commit in hardware even when they could have.
func TestSTMPhaseDragsHardwareTxToSoftware(t *testing.T) {
	m, s := testSystem(2)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex0.Atomic(func(tx tm.Tx) {
				tx.Syscall() // long software transaction over line 0
				tx.Store(0, 1)
				p.Elapse(60_000)
			})
		},
		func(p *machine.Proc) {
			p.Elapse(5_000) // land inside the STM phase
			// Disjoint data: would commit in hardware under the UFO
			// hybrid, but PhTM must run it in software (numMustSTM > 0).
			ex1.Atomic(func(tx tm.Tx) {
				tx.Store(512, 2)
			})
		},
	})
	st := tm.StatsOf(&m.Count)
	if st.SWCommits != 2 {
		t.Fatalf("stats = %v: the disjoint tx must be dragged into software", st)
	}
	if st.HWCommits != 0 {
		t.Fatalf("stats = %v", st)
	}
}

// TestCounterUpdateKillsConcurrentHardwareTx checks the coherence-based
// phase detection: starting a software transaction writes numSTM, which
// aborts hardware transactions that transactionally read it at begin.
func TestCounterUpdateKillsConcurrentHardwareTx(t *testing.T) {
	m, s := testSystem(2)
	ex0, ex1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			// A long-running hardware transaction...
			ex0.Atomic(func(tx tm.Tx) {
				tx.Store(0, tx.Load(0)+1)
				p.Elapse(40_000)
			})
		},
		func(p *machine.Proc) {
			p.Elapse(3_000)
			// ...interrupted by a software phase starting mid-flight.
			ex1.Atomic(func(tx tm.Tx) {
				tx.Syscall()
				tx.Store(512, 5)
			})
		},
	})
	if m.Count.HWAbortsByReason[machine.AbortNonTConflict] == 0 {
		t.Fatal("expected the counter write to kill the hardware reader")
	}
	if m.Mem.Read64(0) != 1 || m.Mem.Read64(512) != 5 {
		t.Fatal("values wrong")
	}
}

func TestPhaseRecoversToHardware(t *testing.T) {
	m, s := testSystem(1)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) { tx.Syscall(); tx.Store(0, 1) }) // STM phase
		for i := 0; i < 5; i++ {                                   // back to HW
			ex.Atomic(func(tx tm.Tx) { tx.Store(0, tx.Load(0)+1) })
		}
	}})
	st := tm.StatsOf(&m.Count)
	if st.HWCommits != 5 || st.SWCommits != 1 {
		t.Fatalf("stats = %v: hardware phase must resume after the STM drains", st)
	}
}

func TestName(t *testing.T) {
	_, s := testSystem(1)
	if s.Name() != "phtm" {
		t.Fatal("name wrong")
	}
}
