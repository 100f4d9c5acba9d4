package machine_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
	"repro/internal/ustm"
)

// TestReleasedArenaIsBlank: whatever a run left behind — committed
// data, UFO bits still set, L1 contents and counts, and, when it was
// killed mid-transaction, SR/SW bits, the open transaction's marked lines
// and half-installed protection — the machine built next on the released
// arena finds none of it, although it is handed the same storage (and no
// marked line outlives the Release): recycled data pages read zero and recycled
// UFO pages clear wherever they land, the directory names no processor,
// the L1s are empty with zero counts, and the engine and processors —
// clocks, step counts, hooks, random streams, the hardware transaction
// the killed run left open — read as a new machine's. Only the
// processors' TM contexts are kept by design, for the next cell's Exec
// to rewrite (harness's TestKeptContextsAreBlank). (The otable half of
// the same scenario is ustm's TestReleasedArenaOTableIsBlank.)
func TestReleasedArenaIsBlank(t *testing.T) {
	const region, lines = 0x10000, 256 // the data every processor works on
	params := machine.DefaultParams(4)
	params.MemBytes = 1 << 20
	cfg := ustm.DefaultConfig()
	cfg.OTableRows = 1 << 6 // long chains: rows get locked under contention

	for _, killed := range []bool{false, true} {
		arena := new(machine.Arena)
		m := arena.New(params)
		stm := ustm.New(m, cfg)
		software := func(p *machine.Proc) {
			ex := stm.Exec(p)
			for i := uint64(0); i < 40; i++ {
				ex.Atomic(func(tx tm.Tx) {
					for l := i; l < i+6; l++ {
						tx.Store(region+l%lines*mem.LineBytes, tx.Load(region+l%lines*mem.LineBytes)+1)
					}
					if killed && i == 30 && p.ID() == 0 {
						panic("killed mid-transaction")
					}
				})
			}
		}
		func() {
			defer func() {
				if r := recover(); (r != nil) != killed {
					t.Fatalf("killed=%v: run ended with %v", killed, r)
				}
			}()
			m.Run([]func(*machine.Proc){software, software,
				func(p *machine.Proc) { // a hardware transaction, left open when the run is killed
					for i := uint64(0); i < 2000; i++ {
						p.BeginHW(m.NextAge(), true)
						if p.TxWrite(region+(lines+i%8)*mem.LineBytes, i+1).Kind != machine.OK {
							continue // a timer interrupt took the transaction
						}
						p.Elapse(500)
						if p.HW() != nil {
							p.CommitHW()
						}
					}
				},
				func(p *machine.Proc) { // protection that outlives the run, and a random stream drawn from
					p.Rand().Uint64()
					for l := uint64(0); l < 64; l++ {
						p.NTWrite(region+(2*lines+l)*mem.LineBytes, ^l)
						p.SetUFO(region+(2*lines+l)*mem.LineBytes, mem.UFOFaultAll)
					}
				},
			})
		}()
		if killed {
			specBits := 0
			m.Directory().ForEach(func(_ uint64, rec cache.Line) {
				if !rec.Writers().Empty() {
					specBits++
				}
			})
			if specBits == 0 || m.HeldLines() == 0 {
				t.Fatal("the killed run left no SW bits or marked lines: the scenario tests nothing")
			}
		}
		l1s := []*cache.L1{m.Proc(0).L1(), m.Proc(3).L1()}
		m.Release()
		if n := m.HeldLines(); n != 0 { // each pair views a page slab the Release unlinked
			t.Fatalf("killed=%v: %d marked lines survive the Release", killed, n)
		}

		m2 := arena.New(params)
		fresh := machine.New(params)
		if got, want := m2.Kept(), fresh.Kept(); got != want {
			t.Fatalf("killed=%v: the reused engine and processors differ from a new machine's:\n%s\nwant\n%s", killed, got, want)
		}
		if _, blank := machine.ContextOf[ustm.Thread](m2.Proc(0)); blank {
			t.Fatalf("killed=%v: the arena dropped processor 0's USTM thread", killed)
		}
		if m2.Mem.Size() != fresh.Mem.Size() || m2.Mem.Sbrk(0) != fresh.Mem.Sbrk(0) {
			t.Fatalf("killed=%v: reused memory has size %d and frontier %d, a new machine's %d and %d",
				killed, m2.Mem.Size(), m2.Mem.Sbrk(0), fresh.Mem.Size(), fresh.Mem.Sbrk(0))
		}
		for i, old := range l1s {
			c := m2.Proc(i * 3).L1()
			if c != old {
				t.Fatalf("killed=%v: proc %d got a new L1, not the arena's", killed, i*3)
			}
			if len(c.Lines()) != 0 || c.Hits() != 0 || c.Misses() != 0 {
				t.Fatalf("killed=%v: reused L1 holds %d lines, %d hits, %d misses", killed, len(c.Lines()), c.Hits(), c.Misses())
			}
		}
		// Materialise pages two pages up from where the last run had
		// them, so recycled pages serve other addresses than before.
		for a := uint64(region); a < region+3*lines*mem.LineBytes; a += mem.PageBytes {
			m2.Mem.Write64(a+2*mem.PageBytes, 1)
			m2.Mem.SetUFO(a+2*mem.PageBytes, mem.UFOFaultOnRead)
			m2.Directory().Line(mem.LineOf(a + 2*mem.PageBytes)).SetWarm()
		}
		ufo := map[uint64]mem.UFOBits{} // by line, from the materialized pages' records
		m2.Mem.Records(func(line uint64, rec []uint64) { ufo[line] = mem.UFOOf(rec) })
		for a := uint64(0); a < m2.Mem.Size(); a += mem.WordBytes {
			first := a >= region+2*mem.PageBytes && a < region+2*mem.PageBytes+3*lines*mem.LineBytes && a%mem.PageBytes < mem.LineBytes
			if got := m2.Mem.Read64(a); got != 0 && !(first && a%mem.PageBytes == 0 && got == 1) {
				t.Fatalf("killed=%v: word %#x reads %#x on the reused memory", killed, a, got)
			}
			if got := ufo[mem.LineOf(a)]; got != mem.UFONone && !(first && got == mem.UFOFaultOnRead) {
				t.Fatalf("killed=%v: line %#x carries %v on the reused memory", killed, a, got)
			}
		}
		m2.Directory().ForEach(func(line uint64, rec cache.Line) {
			t.Fatalf("killed=%v: the reused directory still names processors for line %d: %+v", killed, line, rec)
		})
	}
}
