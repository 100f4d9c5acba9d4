package tmtest

import (
	"fmt"
	"slices"
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

// TestCheck decides crafted histories at every class in one pass each.
// Every node runs on its own processor unless a case says otherwise, so
// po binds only where a case means it to.
func TestCheck(t *testing.T) {
	tx := func(proc int, reads, writes []Access) Node {
		return Node{Proc: proc, Tx: true, Reads: reads, Writes: writes}
	}
	load := func(proc int, a, v uint64) Node { return Node{Proc: proc, Reads: []Access{{a, v}}} }
	store := func(proc int, a, v uint64) Node { return Node{Proc: proc, Writes: []Access{{a, v}}} }
	const x, y = 0, 64
	tenReads := History{
		Nodes: []Node{tx(0, nil, []Access{{x, 1}}), tx(1, nil, []Access{{x, 2}})},
		Co:    []Access{{x, 1}, {x, 2}},
		Final: []Access{{x, 2}},
	}
	for i := 0; i < 10; i++ {
		tenReads.Nodes = append(tenReads.Nodes, tx(2+i, []Access{{x, 2}}, nil))
	}
	tenReads.Nodes = append(tenReads.Nodes, tx(12, []Access{{x, 1}}, nil), tx(13, []Access{{x, 0}}, nil))
	all := []Class{Strong, Serializable, Weak}
	cases := []struct {
		name   string
		h      History
		passes []Class
	}{
		{"lost update", History{
			// Both read x=0, both wrote x: no order has each before the other.
			Nodes: []Node{tx(0, []Access{{x, 0}}, []Access{{x, 1}}), tx(1, []Access{{x, 0}}, []Access{{x, 2}})},
			Co:    []Access{{x, 1}, {x, 2}},
			Final: []Access{{x, 2}},
		}, nil},
		{"torn read", History{
			// x and y are only ever written together, yet one read saw x=1, y=0.
			Nodes: []Node{tx(0, nil, []Access{{x, 1}, {y, 1}}), tx(1, []Access{{x, 1}, {y, 0}}, nil)},
			Co:    []Access{{x, 1}, {y, 1}},
			Final: []Access{{x, 1}, {y, 1}},
		}, nil},
		{"reads the initial state", History{Nodes: []Node{tx(0, []Access{{x, 0}}, nil)}}, all},
		{"reads a value nothing stored", History{Nodes: []Node{tx(0, []Access{{x, 7}}, nil)}}, nil},
		{"ten equal reads between two writes", tenReads, all},
		{"straddling nt reader", History{
			// The reader sees the flag y, then misses the payload x the
			// same transaction wrote: atomic loads, out of program order.
			Nodes: []Node{tx(0, nil, []Access{{y, 1}, {x, 1}}), load(1, y, 1), load(1, x, 0)},
			Co:    []Access{{y, 1}, {x, 1}},
			Final: []Access{{x, 1}, {y, 1}},
		}, []Class{Serializable, Weak}},
		{"nt read of an uncommitted eager value", History{
			// x=1 was only ever the transaction's intermediate value.
			Nodes: []Node{tx(0, nil, []Access{{x, 2}}), load(1, x, 1)},
			Co:    []Access{{x, 2}},
			Final: []Access{{x, 2}},
		}, []Class{Weak}},
		{"late read over its own store", History{
			// The transaction stored x=1, then read a store that landed
			// after it, and committed x=2.
			Nodes: []Node{store(0, x, 9), {Proc: 1, Tx: true, Late: []Access{{x, 9}}, Writes: []Access{{x, 2}}}},
			Co:    []Access{{x, 9}, {x, 2}},
			Final: []Access{{x, 2}},
		}, []Class{Serializable, Weak}},
		{"nt store lost to a rollback", History{
			// An aborted transaction restored x=0 over the store.
			Nodes: []Node{store(0, x, 5)},
			Co:    []Access{{x, 5}},
			Final: []Access{{x, 0}},
		}, []Class{Serializable, Weak}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range all {
				err := Check(tc.h, c)
				if want := slices.Contains(tc.passes, c); (err == nil) != want {
					t.Errorf("%s: Check = %v, want pass=%v", c, err, want)
				}
			}
		})
	}
}

// checkAll fails t unless h passes Check at every class.
func checkAll(t *testing.T, h History) {
	t.Helper()
	for _, c := range []Class{Strong, Serializable, Weak} {
		if err := Check(h, c); err != nil {
			t.Errorf("%s: %v", c, err)
		}
	}
}

func TestCheckerAcceptsSequentialHistory(t *testing.T) {
	// Each transaction reads what the one before it wrote.
	checkAll(t, History{
		Nodes: []Node{
			{Proc: 0, Tx: true, Writes: []Access{{0, 1}}},
			{Proc: 1, Tx: true, Reads: []Access{{0, 1}}, Writes: []Access{{0, 2}}},
			{Proc: 2, Tx: true, Reads: []Access{{0, 2}}},
		},
		Co:    []Access{{0, 1}, {0, 2}},
		Final: []Access{{0, 2}},
	})
}

func TestCheckerAcceptsReorderedHistory(t *testing.T) {
	// The transaction that read 5 is recorded before the one that wrote
	// it: rf, not record order, places the writer first.
	checkAll(t, History{
		Nodes: []Node{
			{Proc: 0, Tx: true, Reads: []Access{{0, 5}}},
			{Proc: 1, Tx: true, Writes: []Access{{0, 5}}},
		},
		Co:    []Access{{0, 5}},
		Final: []Access{{0, 5}},
	})
}

// --- recorded fuzzing across every TM system ---

// fuzzSystem runs 4 processors of 15 random transactions each on one
// system over 8 shared lines and checks the history at the weak class.
// Every store writes a value unique to its (processor, transaction,
// slot), so each read names its writer.
func fuzzSystem(t *testing.T, name string, mk func(*machine.Machine) tm.System, seed uint64) {
	t.Helper()
	params := machine.DefaultParams(4)
	params.MemBytes = 1 << 22
	params.Quantum = 0
	params.MaxSteps = 30_000_000
	params.Seed = seed
	m := machine.New(params)
	rec := NewRecorder(m, mk(m))
	base := m.Mem.Sbrk(8 * 64)
	var ws []func(*machine.Proc)
	for i := 0; i < 4; i++ {
		ex := rec.Exec(m.Proc(i))
		ws = append(ws, func(p *machine.Proc) {
			r := p.Rand()
			for n := 0; n < 15; n++ {
				a := base + uint64(r.Intn(8))*64
				b := base + uint64(r.Intn(8))*64
				kind := r.Intn(3)
				val := func(slot int) uint64 { return uint64(p.ID()*1000 + n*10 + slot + 1) }
				ex.Atomic(func(tx tm.Tx) {
					switch kind {
					case 0: // read-modify-write
						tx.Load(a)
						tx.Store(a, val(0))
					case 1: // read two, write both
						tx.Load(a)
						tx.Load(b)
						tx.Store(a, val(0))
						tx.Store(b, val(1))
					case 2: // read pair
						_ = tx.Load(a) + tx.Load(b)
					}
				})
				p.Elapse(uint64(10 + r.Intn(150)))
			}
		})
	}
	m.Run(ws)
	h := rec.History()
	if got := len(h.Nodes); got != 60 {
		t.Fatalf("history has %d transactions, want 60", got)
	}
	if err := Check(h, Weak); err != nil {
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
	rec := NewRecorder(m, seq.New(m, seq.GlobalLock))
	ex := rec.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(0, 9)
			_ = tx.Load(0) // own write: must NOT be recorded as a read
			_ = tx.Load(64)
			_ = tx.Load(64) // duplicate read: recorded once
		})
	}})
	h := rec.History()
	if len(h.Nodes) != 1 {
		t.Fatalf("history = %d", len(h.Nodes))
	}
	r := h.Nodes[0]
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
	rec := NewRecorder(m, ustm.New(m, cfg))
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
	h := rec.History()
	if len(h.Nodes) != 1 {
		t.Fatalf("history = %d", len(h.Nodes))
	}
	r := h.Nodes[0]
	got := map[uint64]uint64{}
	for _, w := range r.Writes {
		got[w.Addr] = w.Val
	}
	if len(got) != 2 || got[0] != 1 || got[128] != 3 {
		t.Fatalf("recorded writes = %v, want {0:1 128:3}", r.Writes)
	}
	if err := Check(h, Strong); err != nil {
		t.Fatal(err)
	}
}
