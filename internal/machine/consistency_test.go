package machine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
)

func TestConsistencyAfterRandomStress(t *testing.T) {
	params := testParams(4)
	params.L1Bytes = 2 * 1024 // small: plenty of evictions
	params.L1Ways = 2
	m := New(params)
	var ws []func(*Proc)
	for i := 0; i < 4; i++ {
		ws = append(ws, func(p *Proc) {
			r := p.Rand()
			for n := 0; n < 400; n++ {
				addr := uint64(r.Intn(64)) * 64
				switch r.Intn(6) {
				case 0, 1:
					if p.HW() == nil {
						p.NTRead(addr)
					}
				case 2:
					if p.HW() == nil {
						p.NTWrite(addr, uint64(n))
					}
				case 3:
					if p.HW() == nil {
						p.BeginHW(p.Machine().NextAge(), true)
					}
					if out := p.TxWrite(addr, uint64(n)); out.Kind == OK {
						if r.Intn(3) == 0 {
							p.CommitHW()
						}
					}
					// Aborted/nacked transactions are cleaned up below.
				case 4:
					if p.HW() != nil {
						p.AbortHW(AbortExplicit, -1, 0, false)
					}
				case 5:
					if p.HW() == nil {
						p.SetUFOEnabled(false)
						p.SetUFO(addr, mem.UFOBits(r.Intn(4)))
						p.SetUFOEnabled(true)
					}
				}
				if p.HW() != nil && r.Intn(4) == 0 {
					switch p.CommitHW().Kind {
					case OK, HWAborted:
					}
				}
				if n%50 == 0 {
					if err := p.Machine().CheckConsistency(); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if p.HW() != nil {
				p.AbortHW(AbortExplicit, -1, 0, false)
			}
		})
	}
	m.Run(ws)
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestConsistencyAfterMixedTMRun(t *testing.T) {
	// The conformance workloads exercise the machine through TM systems;
	// here just re-validate invariants post-run at machine level.
	m := New(testParams(2))
	m.Run([]func(*Proc){
		func(p *Proc) {
			for n := 0; n < 100; n++ {
				p.BeginHW(m.NextAge(), true)
				out := p.TxWrite(uint64(n%8)*64, uint64(n))
				if out.Kind == OK && p.HW() != nil {
					p.CommitHW()
				}
			}
		},
		func(p *Proc) {
			for n := 0; n < 100; n++ {
				p.NTWrite(uint64(n%8)*64, uint64(n))
			}
		},
	})
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitAndKillClearEveryBit: the SR/SW bits live in records every
// processor reads, so a transaction must take all of its bits with it
// when it commits and when it is killed — a bit left behind would be a
// conflict against nobody.
func TestCommitAndKillClearEveryBit(t *testing.T) {
	m := New(testParams(2))
	bits := func() (n int) {
		m.dir.ForEach(func(_ uint64, rec cache.Line) {
			for _, set := range [2]cache.ProcSet{rec.Readers(), rec.Writers()} {
				for i := set.Next(0); i >= 0; i = set.Next(i + 1) {
					n++
				}
			}
		})
		return n
	}
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.BeginHW(m.NextAge(), true)
			p.TxRead(0)
			p.TxWrite(64, 1)
			p.TxWrite(0, 2) // line 0 carries both bits
			if got := bits(); got != 3 {
				t.Errorf("%d bits set mid-transaction, want 3", got)
			}
			if got := p.HW().Footprint(); got != 2 {
				t.Errorf("footprint %d, want 2", got)
			}
			p.CommitHW()
			if got := bits(); got != 0 {
				t.Errorf("%d bits left after commit", got)
			}
			p.BeginHW(m.NextAge(), true)
			p.TxWrite(128, 3)
			p.Elapse(1000) // processor 1 kills the transaction here
			if got := bits(); got != 0 {
				t.Errorf("%d bits left after the kill", got)
			}
			if out := p.CommitHW(); out.Kind != HWAborted {
				t.Errorf("commit after the kill: %v", out.Kind)
			}
			p.BeginHW(m.NextAge(), true) // must find nothing left behind
			p.CommitHW()
		},
		func(p *Proc) {
			p.Elapse(500)
			p.NTWrite(128, 9)
		},
	})
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestBeginHWRejectsLeftoverState: BeginHW no longer clears what the
// last transaction left; it insists there is nothing.
func TestBeginHWRejectsLeftoverState(t *testing.T) {
	run1(t, testParams(1), func(p *Proc) {
		p.BeginHW(1, true)
		p.CommitHW()
		p.hwBuf.reads = append(p.hwBuf.reads, heldLine{7, p.m.dir.Line(7)})
		defer func() {
			if recover() == nil {
				t.Error("BeginHW accepted a line list the last transaction left behind")
			}
			p.hwBuf.reads = p.hwBuf.reads[:0]
		}()
		p.BeginHW(2, true)
	})
}

// TestCheckConsistencyFindsStrayBits breaks the bit/list invariant one
// way at a time and expects CheckConsistency to object to each.
func TestCheckConsistencyFindsStrayBits(t *testing.T) {
	breaks := []struct {
		name string
		do   func(m *Machine, p *Proc)
	}{
		{"bit for a processor with no transaction", func(m *Machine, p *Proc) { m.dir.Line(9).Readers().Set(1) }},
		{"bit on a line the transaction does not list", func(m *Machine, p *Proc) { m.dir.Line(9).Writers().Set(0) }},
		{"listed line whose bit is clear", func(m *Machine, p *Proc) { m.dir.Line(1).Readers().Clear(0) }},
		{"line listed twice", func(m *Machine, p *Proc) { p.hw.reads = append(p.hw.reads, p.hw.reads[0]) }},
		{"line held with another line's record", func(m *Machine, p *Proc) { p.hw.reads[0].rec = m.dir.Line(3) }},
		{"bit that outlives a kill", func(m *Machine, p *Proc) {
			p.killHW(p, AbortExplicit, 0, false)
			m.dir.Line(1).Readers().Set(0)
		}},
		{"speculative word off the write set", func(m *Machine, p *Proc) { p.hw.Spec.Put(256, 1) }},
	}
	for _, b := range breaks {
		m := New(testParams(2))
		m.Run([]func(*Proc){func(p *Proc) {
			p.BeginHW(1, false)
			p.TxRead(64)      // line 1
			p.TxWrite(128, 5) // line 2
			if err := m.CheckConsistency(); err != nil {
				t.Errorf("%s: before the break: %v", b.name, err)
			}
			b.do(m, p)
			if err := m.CheckConsistency(); err == nil {
				t.Errorf("%s: CheckConsistency found nothing wrong", b.name)
			}
		}, func(*Proc) {}})
	}
}
