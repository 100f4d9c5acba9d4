package tmtest

import (
	"fmt"
	"testing"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/hytm"
	"repro/internal/machine"
	"repro/internal/phtm"
	"repro/internal/seq"
	"repro/internal/tl2"
	"repro/internal/tm"
	"repro/internal/unbounded"
	"repro/internal/ustm"
)

// --- checker unit tests on crafted histories ---

func TestCheckerAcceptsSequentialHistory(t *testing.T) {
	h := []TxRecord{
		{Writes: []Access{{0, 1}}},
		{Reads: []Access{{0, 1}}, Writes: []Access{{0, 2}}},
		{Reads: []Access{{0, 2}}},
	}
	if err := CheckSerializable(h, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerAcceptsReorderedHistory(t *testing.T) {
	// Appended out of serial order: tx reading 5 recorded before the tx
	// that wrote 5.
	h := []TxRecord{
		{Reads: []Access{{0, 5}}},
		{Writes: []Access{{0, 5}}},
	}
	if err := CheckSerializable(h, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerRejectsLostUpdate(t *testing.T) {
	// Two increments both read 0 and both wrote 1: no serial order.
	h := []TxRecord{
		{Reads: []Access{{0, 0}}, Writes: []Access{{0, 1}}},
		{Reads: []Access{{0, 0}}, Writes: []Access{{0, 1}}},
		{Reads: []Access{{0, 2}}}, // someone observed 2: contradiction
	}
	if err := CheckSerializable(h, nil); err == nil {
		t.Fatal("lost update not detected")
	}
}

func TestCheckerRejectsTornRead(t *testing.T) {
	// A transaction saw x=1,y=0 although x and y are only ever written
	// together.
	h := []TxRecord{
		{Writes: []Access{{0, 1}, {8, 1}}},
		{Reads: []Access{{0, 1}, {8, 0}}},
	}
	if err := CheckSerializable(h, nil); err == nil {
		t.Fatal("torn read not detected")
	}
}

func TestCheckerPlacesReadOnlyRecordsOnce(t *testing.T) {
	// In history order both writes come first, and the ten reads of 2
	// then strand the reads of 1 and 0. A search that tried every order
	// of the identical reads (10! of them) would exhaust its step budget
	// before backing out of the writes.
	h := []TxRecord{{Writes: []Access{{0, 1}}}, {Writes: []Access{{0, 2}}}}
	for i := 0; i < 10; i++ {
		h = append(h, TxRecord{Reads: []Access{{0, 2}}})
	}
	h = append(h, TxRecord{Reads: []Access{{0, 1}}}, TxRecord{Reads: []Access{{0, 0}}})
	if err := CheckSerializable(h, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerUsesInitialState(t *testing.T) {
	h := []TxRecord{{Reads: []Access{{0, 7}}}}
	if err := CheckSerializable(h, map[uint64]uint64{0: 7}); err != nil {
		t.Fatal(err)
	}
	if err := CheckSerializable(h, nil); err == nil {
		t.Fatal("initial state ignored")
	}
}

// --- recorded fuzzing across every TM system ---

func fuzzSystem(t *testing.T, name string, mk func(*machine.Machine) tm.System, seed uint64) {
	t.Helper()
	params := machine.DefaultParams(4)
	params.MemBytes = 1 << 22
	params.Quantum = 0
	params.MaxSteps = 30_000_000
	params.Seed = seed
	m := machine.New(params)
	rec := NewRecorder(mk(m))
	base := m.Mem.Sbrk(8 * 64)
	initial := map[uint64]uint64{}
	for i := uint64(0); i < 8; i++ {
		m.Mem.Write64(base+i*64, i*100)
		initial[base+i*64] = i * 100
	}
	var ws []func(*machine.Proc)
	for i := 0; i < 4; i++ {
		ex := rec.Exec(m.Proc(i))
		ws = append(ws, func(p *machine.Proc) {
			r := p.Rand()
			for n := 0; n < 15; n++ {
				a := base + uint64(r.Intn(8))*64
				b := base + uint64(r.Intn(8))*64
				kind := r.Intn(3)
				ex.Atomic(func(tx tm.Tx) {
					switch kind {
					case 0: // increment
						tx.Store(a, tx.Load(a)+1)
					case 1: // swap
						va, vb := tx.Load(a), tx.Load(b)
						tx.Store(a, vb)
						tx.Store(b, va)
					case 2: // read pair
						_ = tx.Load(a) + tx.Load(b)
					}
				})
				p.Elapse(uint64(10 + r.Intn(150)))
			}
		})
	}
	m.Run(ws)
	if got := len(rec.History); got != 60 {
		t.Fatalf("history has %d transactions, want 60", got)
	}
	if err := CheckSerializable(rec.History, initial); err != nil {
		t.Fatalf("%s (seed %d): %v", name, seed, err)
	}
}

func TestSerializabilityFuzzAllSystems(t *testing.T) {
	systems := map[string]func(*machine.Machine) tm.System{
		"ufo-hybrid": func(m *machine.Machine) tm.System {
			cfg := ustm.DefaultConfig()
			cfg.OTableRows = 1 << 12
			return core.New(m, cfg, core.Policy{}, cm.KindExponential)
		},
		"hytm": func(m *machine.Machine) tm.System {
			cfg := ustm.DefaultConfig()
			cfg.OTableRows = 1 << 12
			return hytm.New(m, cfg, cm.KindExponential)
		},
		"phtm": func(m *machine.Machine) tm.System {
			cfg := ustm.DefaultConfig()
			cfg.OTableRows = 1 << 12
			return phtm.New(m, cfg, cm.KindExponential)
		},
		"ustm+ufo": func(m *machine.Machine) tm.System {
			cfg := ustm.DefaultConfig()
			cfg.OTableRows = 1 << 12
			return ustm.New(m, cfg)
		},
		"tl2": func(m *machine.Machine) tm.System {
			return tl2.New(m, cm.KindExponential)
		},
		"unbounded-htm": func(m *machine.Machine) tm.System {
			return unbounded.New(m, cm.KindExponential)
		},
		"global-lock": func(m *machine.Machine) tm.System {
			return seq.New(m, seq.GlobalLock)
		},
	}
	for name, mk := range systems {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				fuzzSystem(t, name, mk, seed)
			})
		}
	}
}

func TestRecorderCapturesReadYourWritesCorrectly(t *testing.T) {
	params := machine.DefaultParams(1)
	params.MemBytes = 1 << 20
	m := machine.New(params)
	rec := NewRecorder(seq.New(m, seq.GlobalLock))
	ex := rec.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(0, 9)
			_ = tx.Load(0) // own write: must NOT be recorded as a read
			_ = tx.Load(64)
			_ = tx.Load(64) // duplicate read: recorded once
		})
	}})
	if len(rec.History) != 1 {
		t.Fatalf("history = %d", len(rec.History))
	}
	r := rec.History[0]
	if len(r.Reads) != 1 || r.Reads[0].Addr != 64 {
		t.Fatalf("reads = %v", r.Reads)
	}
	if len(r.Writes) != 1 || r.Writes[0] != (Access{0, 9}) {
		t.Fatalf("writes = %v", r.Writes)
	}
}

func TestRecorderHandlesNestedAborts(t *testing.T) {
	params := machine.DefaultParams(1)
	params.MemBytes = 1 << 20
	m := machine.New(params)
	cfg := ustm.DefaultConfig()
	cfg.OTableRows = 1 << 10
	rec := NewRecorder(ustm.New(m, cfg))
	ex := rec.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(0, 1)
			tx.Nested(func() {
				tx.Store(64, 2)
				tx.Abort() // nested write must vanish from the record
			})
			tx.Nested(func() {
				tx.Store(128, 3) // kept
			})
		})
	}})
	if len(rec.History) != 1 {
		t.Fatalf("history = %d", len(rec.History))
	}
	r := rec.History[0]
	got := map[uint64]uint64{}
	for _, w := range r.Writes {
		got[w.Addr] = w.Val
	}
	if len(got) != 2 || got[0] != 1 || got[128] != 3 {
		t.Fatalf("recorded writes = %v, want {0:1 128:3}", r.Writes)
	}
	if err := CheckSerializable(rec.History, nil); err != nil {
		t.Fatal(err)
	}
}
