package hytm

import (
	"testing"

	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/mem"
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
	if m.Count.HWCommits != 5 {
		t.Fatalf("stats = %v", tm.StatsOf(&m.Count))
	}
}

// TestBarrierPutsOTableRowInFootprint verifies the defining HyTM cost:
// each hardware access transactionally reads the covering otable row, so
// otable rows inflate the transactional footprint.
func TestBarrierPutsOTableRowInFootprint(t *testing.T) {
	m, s := testSystem(1)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(0, 1)
			fp := p.HW().Footprint()
			// One data line + one otable row line.
			if fp != 2 {
				t.Fatalf("footprint = %d, want 2 (data + otable row)", fp)
			}
			row := mem.LineOf(s.stm.RowAddr(0))
			if !p.HW().Reads(row) {
				t.Fatal("otable row not in the transactional read set")
			}
		})
	}})
}

// TestSTMActivityOnAliasedRowKillsHardwareTx reproduces HyTM's
// false-conflict pathology: an STM transaction touching an unrelated line
// that hashes to an otable row a hardware transaction read will kill it.
func TestSTMActivityOnAliasedRowKillsHardwareTx(t *testing.T) {
	m, s := testSystem(2)
	ex0 := s.Exec(m.Proc(0))
	// Find a line that aliases line 0's otable row but is a different
	// data line.
	target := s.stm.RowAddr(0)
	var alias uint64
	for l := uint64(1); ; l++ {
		if s.stm.RowAddr(l) == target {
			alias = l
			break
		}
	}
	th := s.stm.Thread(m.Proc(1))
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			ex0.Atomic(func(tx tm.Tx) {
				tx.Store(0, 1) // barrier reads otable row for line 0
				p.Elapse(30_000)
			})
		},
		func(p *machine.Proc) {
			p.Elapse(3_000)
			// A software transaction acquires the aliasing line: its
			// otable insert writes the shared row, killing the HW reader.
			th.Begin(m.NextAge())
			th.Store(mem.LineAddr(alias), 9)
			th.End()
		},
	})
	if m.Count.HWAbortsByReason[machine.AbortNonTConflict] == 0 {
		t.Fatal("aliased otable update did not kill the hardware transaction")
	}
	if m.Mem.Read64(0) != 1 {
		t.Fatal("hardware tx eventually failed to commit")
	}
}

// TestBarrierDetectsSTMOwnership verifies the instrumented check: a
// hardware transaction touching a line owned by a software transaction
// must abort rather than violate its atomicity.
func TestBarrierDetectsSTMOwnership(t *testing.T) {
	m, s := testSystem(2)
	ex0 := s.Exec(m.Proc(0))
	th := s.stm.Thread(m.Proc(1))
	var collided uint64
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			p.Elapse(2_000) // let the STM tx acquire the line first
			ex0.Atomic(func(tx tm.Tx) {
				collided = tx.Load(0) // must not see the uncommitted 555
			})
		},
		func(p *machine.Proc) {
			th.Begin(m.NextAge())
			th.Store(0, 555)
			p.Elapse(30_000)
			// Kill our own doomed transaction; rollback restores 0.
			// (Standing in for an aborted long transaction.)
			func() {
				defer func() { recover() }()
				th.Rollback(machine.AbortConflict)
			}()
		},
	})
	if collided != 0 {
		t.Fatalf("hardware tx read uncommitted STM state: %d", collided)
	}
	if m.Count.HWRetries == 0 && m.Count.HWAbortsByReason[machine.AbortExplicit] == 0 {
		t.Fatal("expected barrier-detected conflicts")
	}
}

func TestRepeatedSTMConflictFailsOver(t *testing.T) {
	m, s := testSystem(2)
	ex0 := s.Exec(m.Proc(0))
	th := s.stm.Thread(m.Proc(1))
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			p.Elapse(1_000)
			ex0.Atomic(func(tx tm.Tx) {
				tx.Store(0, tx.Load(0)+1)
			})
		},
		func(p *machine.Proc) {
			// Hold the line in a software transaction for a long time.
			th.Begin(m.NextAge())
			th.Store(0, 100)
			p.Elapse(200_000)
			th.End()
		},
	})
	if m.Count.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1 (persistent STM conflict must fail over)", m.Count.Failovers)
	}
	if got := m.Mem.Read64(0); got != 101 {
		t.Fatalf("value = %d, want 101", got)
	}
}

func TestWeakAtomicity(t *testing.T) {
	m, s := testSystem(1)
	if s.stm.Name() != "ustm" {
		t.Fatal("HyTM's STM must be weakly atomic")
	}
	if s.Name() != "hytm" {
		t.Fatal("name wrong")
	}
	_ = m
}
