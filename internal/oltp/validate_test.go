package oltp

import (
	"regexp"
	"testing"

	"repro/internal/machine"
	"repro/internal/seq"
	"repro/internal/txlib"
)

// The word offsets of a tree node (txlib.Tree's documented layout).
const (
	nodeKey   = 0
	nodeVal   = 8
	nodeLeft  = 16
	nodeRight = 24
)

// TestValidateRejectsCorruptStore: after a clean run, each single
// corruption of the store — a tree out of order with its node count
// unchanged, a tree one leaf short, a tree node naming another key's
// record, a record one off its expected value — fails Validate with an
// error that names a key.
func TestValidateRejectsCorruptStore(t *testing.T) {
	if w, m := cleanRun(t); w.Validate(m) != nil {
		t.Fatal("the clean run fails Validate")
	}
	// nodes lists the tree's node addresses in ascending key order.
	corruptions := []struct {
		name    string
		corrupt func(w *Workload, via txlib.Direct, nodes []uint64) bool
	}{
		{"swap a node's key with its child's", func(_ *Workload, via txlib.Direct, nodes []uint64) bool {
			for _, n := range nodes {
				if c := via.Load(n + nodeLeft); c != 0 {
					k := via.Load(n + nodeKey)
					via.Store(n+nodeKey, via.Load(c+nodeKey))
					via.Store(c+nodeKey, k)
					return true
				}
			}
			return false
		}},
		{"unlink a leaf", func(_ *Workload, via txlib.Direct, nodes []uint64) bool {
			for _, n := range nodes {
				for _, link := range []uint64{n + nodeLeft, n + nodeRight} {
					if c := via.Load(link); c != 0 && via.Load(c+nodeLeft) == 0 && via.Load(c+nodeRight) == 0 {
						via.Store(link, 0)
						return true
					}
				}
			}
			return false
		}},
		{"point a node at another key's record", func(w *Workload, via txlib.Direct, nodes []uint64) bool {
			via.Store(nodes[4]+nodeVal, w.RecordAddr(6))
			return true
		}},
		{"add 1 to a record", func(w *Workload, via txlib.Direct, _ []uint64) bool {
			via.Store(w.RecordAddr(7), via.Load(w.RecordAddr(7))+1)
			return true
		}},
	}
	namesKey := regexp.MustCompile(`key \d+`)
	for _, tc := range corruptions {
		w, m := cleanRun(t)
		via := txlib.Direct{M: m}
		var nodes []uint64
		w.tree.Scan(via, 0, func(_, _, node uint64) bool { nodes = append(nodes, node); return true })
		if !tc.corrupt(w, via, nodes) {
			t.Fatalf("%s: the tree has no such node", tc.name)
		}
		if err := w.Validate(m); err == nil {
			t.Errorf("%s: Validate passed", tc.name)
		} else if !namesKey.MatchString(err.Error()) {
			t.Errorf("%s: %q names no key", tc.name, err)
		}
	}
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
