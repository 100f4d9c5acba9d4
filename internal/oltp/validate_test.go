package oltp

import (
	"regexp"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/seq"
	"repro/internal/txlib"
)

// The word offsets of a tree node (txlib.Tree's documented layout) and
// of a hash chain node (txlib.List's, which txlib.Hash's nodes reuse).
const (
	nodeKey   = 0
	nodeVal   = 8
	nodeLeft  = 16
	nodeRight = 24
	chainVal  = 8
	chainNext = 16
)

// TestValidateRejectsCorruptStore: after a clean run, each single
// corruption of the store fails Validate with an error that names a key:
// a tree out of order with its node count unchanged, a tree one leaf
// short, a tree node naming another key's record, a changed root cell, a
// hash chain cut short, a bucket head pointing into another bucket's
// chain, a hash node naming another key's record, a record one off its
// expected value.
func TestValidateRejectsCorruptStore(t *testing.T) {
	if w, m := cleanRun(t); w.Validate(m) != nil {
		t.Fatal("the clean run fails Validate")
	}
	corruptions := []struct {
		name    string
		corrupt func(w *Workload, via txlib.Direct) bool
	}{
		{"swap a node's key with its child's", func(w *Workload, via txlib.Direct) bool {
			for _, n := range w.tnodes {
				if c := via.Load(n + nodeLeft); c != 0 {
					k := via.Load(n + nodeKey)
					via.Store(n+nodeKey, via.Load(c+nodeKey))
					via.Store(c+nodeKey, k)
					return true
				}
			}
			return false
		}},
		{"unlink a leaf", func(w *Workload, via txlib.Direct) bool {
			for _, n := range w.tnodes {
				for _, link := range []uint64{n + nodeLeft, n + nodeRight} {
					if c := via.Load(link); c != 0 && via.Load(c+nodeLeft) == 0 && via.Load(c+nodeRight) == 0 {
						via.Store(link, 0)
						return true
					}
				}
			}
			return false
		}},
		{"point a node at another key's record", func(w *Workload, via txlib.Direct) bool {
			via.Store(w.tnodes[4]+nodeVal, w.RecordAddr(6))
			return true
		}},
		{"change the root cell", func(w *Workload, via txlib.Direct) bool {
			root := w.tnodes[w.order[0]-1]
			cell, ok := cellHolding(w, via, root)
			if !ok {
				return false
			}
			for _, link := range []uint64{root + nodeLeft, root + nodeRight} {
				if c := via.Load(link); c != 0 {
					via.Store(cell, c)
					return true
				}
			}
			return false
		}},
		{"cut a hash chain short", func(w *Workload, via txlib.Direct) bool {
			for _, n := range w.hnodes {
				if via.Load(n+chainNext) != 0 {
					via.Store(n+chainNext, 0)
					return true
				}
			}
			return false
		}},
		{"point a bucket head into another bucket's chain", func(w *Workload, via txlib.Direct) bool {
			var heads []uint64 // the nodes no chain link reaches
			linked := map[uint64]bool{}
			for _, n := range w.hnodes {
				linked[via.Load(n+chainNext)] = true
			}
			for _, n := range w.hnodes {
				if !linked[n] {
					heads = append(heads, n)
				}
			}
			if len(heads) < 2 {
				return false
			}
			cell, ok := cellHolding(w, via, heads[0])
			if ok {
				via.Store(cell, heads[1])
			}
			return ok
		}},
		{"point a hash node at another key's record", func(w *Workload, via txlib.Direct) bool {
			via.Store(w.hnodes[9]+chainVal, w.RecordAddr(12))
			return true
		}},
		{"add 1 to a record", func(w *Workload, via txlib.Direct) bool {
			via.Store(w.RecordAddr(7), via.Load(w.RecordAddr(7))+1)
			return true
		}},
	}
	namesKey := regexp.MustCompile(`key \d+`)
	for _, tc := range corruptions {
		w, m := cleanRun(t)
		if !tc.corrupt(w, txlib.Direct{M: m}) {
			t.Fatalf("%s: the store has no such node", tc.name)
		}
		if err := w.Validate(m); err == nil {
			t.Errorf("%s: Validate passed", tc.name)
		} else if !namesKey.MatchString(err.Error()) {
			t.Errorf("%s: %q names no key", tc.name, err)
		}
	}
}

// cellHolding finds the word below the store's first record that holds
// node: its bucket head or the root cell, which Init allocates first.
func cellHolding(w *Workload, via txlib.Direct, node uint64) (uint64, bool) {
	for a := uint64(0); a < w.records[w.order[0]-1]; a += 8 {
		if via.Load(a) == node {
			return a, true
		}
	}
	return 0, false
}

// cleanRun runs a small oltp cell on the two-processor lock baseline and
// returns the workload and its machine, not yet validated.
func cleanRun(t *testing.T) (*Workload, *machine.Machine) {
	t.Helper()
	p := machine.DefaultParams(2)
	p.MemBytes = 1 << 22
	m := machine.New(p)
	sys := seq.New(m, seq.GlobalLock)
	w := New(Config{
		Keys: 64, RequestsPerProc: 30, Theta: 0.9,
		ReadPct: 70, RMWPct: 25, ScanPct: 5,
		ScanLen: 4, MeanGap: 400, Seed: 21,
	})
	w.Init(m, 2)
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) { w.Thread(0, sys.Exec(p)) },
		func(p *machine.Proc) { w.Thread(1, sys.Exec(p)) },
	})
	return w, m
}

// TestInitMatchesInsertLoop: the store Init builds in bulk is word for
// word the store an Insert loop over the same order builds — a record,
// hash.Insert and tree.Insert per key — for store sizes around the
// power-of-two bucket counts, several seeds, and two base addresses.
func TestInitMatchesInsertLoop(t *testing.T) {
	for _, keys := range []int{1, 2, 3, 64, 256, 4096, 5000} {
		for _, seed := range []uint64{1, 11, 21} {
			for _, base := range []uint64{0, 5 * mem.LineBytes} {
				cfg := Config{Keys: keys, ReadPct: 100, Seed: seed}
				m := machine.New(machine.DefaultParams(1))
				m.Mem.Sbrk(base)
				w := New(cfg)
				w.Init(m, 1)

				ref := machine.New(machine.DefaultParams(1))
				ref.Mem.Sbrk(base)
				via := txlib.Direct{M: ref}
				arena := txlib.NewArena(ref, nil, uint64(keys+64)*4*mem.LineBytes)
				buckets := uint64(1)
				for buckets*2 <= uint64(keys) {
					buckets *= 2
				}
				hash := txlib.NewHash(via, arena, buckets)
				tree := txlib.NewTree(via, arena)
				for _, key := range w.order {
					rec := arena.Alloc(8)
					via.Store(rec, initialValue(key))
					hash.Insert(via, arena, key, rec)
					tree.Insert(via, arena, key, rec)
				}

				brk := ref.Mem.Sbrk(0)
				if got := m.Mem.Sbrk(0); got != brk {
					t.Fatalf("keys=%d seed=%d base=%#x: Init allocated up to %#x, the Insert loop to %#x", keys, seed, base, got, brk)
				}
				for a := uint64(0); a < brk; a += mem.WordBytes {
					if got, want := m.Mem.Read64(a), ref.Mem.Read64(a); got != want {
						t.Fatalf("keys=%d seed=%d base=%#x: word %#x is %#x after Init, %#x after the Insert loop", keys, seed, base, a, got, want)
					}
				}
				if err := w.Validate(m); err != nil {
					t.Fatalf("keys=%d seed=%d base=%#x: %v", keys, seed, base, err)
				}
			}
		}
	}
}

// BenchmarkOLTPInitValidate measures the store's own host cost: one Init
// and one Validate of the 4,096-key store every full-scale sweep cell
// builds (seed 11), on a machine arena reused across iterations as the
// harness reuses one across cells. The mix has no RMW, so the store
// validates without a run, yet Validate still sums over every request.
func BenchmarkOLTPInitValidate(b *testing.B) {
	cfg := Config{
		Keys: 4096, RequestsPerProc: 160, ScanLen: 16, Theta: 0.9,
		ReadPct: 85, ScanPct: 15, MeanGap: 1000, Seed: 11,
	}
	const threads = 8
	traces := cfg.Traces(threads)
	var arena machine.Arena
	p := machine.DefaultParams(threads)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := arena.New(p)
		w := Replay(cfg, traces)
		w.Init(m, threads)
		if err := w.Validate(m); err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}
