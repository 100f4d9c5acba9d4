package txlib

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

// countingMem is Direct with a count of the loads made through it.
type countingMem struct {
	Direct
	loads int
}

func (c *countingMem) Load(addr uint64) uint64 {
	c.loads++
	return c.Direct.Load(addr)
}

// bulkStore is a Hash and a Tree over keys 1..n with, per key, a value
// line allocated just before its two nodes — the oltp store's shape.
type bulkStore struct {
	m                    *machine.Machine
	hash                 Hash
	tree                 Tree
	vals, hnodes, tnodes []uint64
}

// newBulkStore builds the store from order with the Insert loop, or
// with NewNode and Build when bulk is set, counting loads through via.
// The arena is small, so a large store spans several refills.
func newBulkStore(order []uint64, bulk bool, scratch []uint64) (*bulkStore, int) {
	p := machine.DefaultParams(1)
	p.MemBytes = 1 << 24
	m := machine.New(p)
	via := &countingMem{Direct: Direct{M: m}}
	a := NewArena(m, nil, 1<<16)
	n := len(order)
	buckets := uint64(1)
	for buckets*2 <= uint64(n) {
		buckets *= 2
	}
	s := &bulkStore{
		m: m, hash: NewHash(via, a, buckets), tree: NewTree(via, a),
		vals: make([]uint64, n), hnodes: make([]uint64, n), tnodes: make([]uint64, n),
	}
	for _, key := range order {
		s.vals[key-1] = a.Alloc(8)
		via.Store(s.vals[key-1], key*3+1)
		if bulk {
			s.hnodes[key-1] = s.hash.NewNode(a)
			s.tnodes[key-1] = s.tree.NewNode(a)
		} else {
			s.hash.Insert(via, a, key, s.vals[key-1])
			s.tree.Insert(via, a, key, s.vals[key-1])
		}
	}
	if bulk {
		s.hash.Build(via, order, s.hnodes, s.vals, scratch)
		s.tree.Build(via, order, s.tnodes, s.vals, scratch)
	}
	return s, via.loads
}

func shuffledKeys(n int, seed uint64) []uint64 {
	order := make([]uint64, n)
	for i := range order {
		order[i] = uint64(i + 1)
	}
	r := sim.NewRand(seed)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// TestBulkBuildMatchesInsertLoop: for random insertion orders, a Hash and
// a Tree built in bulk leave memory word for word as the Insert loop
// leaves it, the build loads no word, and Check accepts the result — with
// scratch left over from other work, and with none.
func TestBulkBuildMatchesInsertLoop(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 64, 4096} {
		for seed := uint64(1); seed <= 3; seed++ {
			order := shuffledKeys(n, seed)
			var scratch []uint64
			if seed%2 == 1 {
				scratch = make([]uint64, 3*n+5)
				for i := range scratch {
					scratch[i] = ^uint64(i)
				}
			}
			ref, _ := newBulkStore(order, false, nil)
			got, loads := newBulkStore(order, true, scratch)
			if loads != 0 {
				t.Errorf("n=%d seed=%d: the bulk build loaded %d words", n, seed, loads)
			}
			brk := ref.m.Mem.Sbrk(0)
			if b := got.m.Mem.Sbrk(0); b != brk {
				t.Fatalf("n=%d seed=%d: bulk build allocated up to %#x, Insert loop to %#x", n, seed, b, brk)
			}
			for addr := uint64(0); addr < brk; addr += mem.WordBytes {
				if g, w := got.m.Mem.Read64(addr), ref.m.Mem.Read64(addr); g != w {
					t.Fatalf("n=%d seed=%d: word %#x is %#x after the bulk build, %#x after the Insert loop", n, seed, addr, g, w)
				}
			}
			via := Direct{M: got.m}
			if err := got.hash.Check(via, order, got.hnodes, got.vals, scratch); err != nil {
				t.Errorf("n=%d seed=%d: hash Check: %v", n, seed, err)
			}
			if err := got.tree.Check(via, order, got.tnodes, got.vals, scratch); err != nil {
				t.Errorf("n=%d seed=%d: tree Check: %v", n, seed, err)
			}
		}
	}
}

// TestBulkCheckCatchesEveryWord: changing any one word Build stored — a
// bucket head, the root cell, any word of any node — fails Check, and the
// error names the key the word belongs to (an empty bucket's head
// belongs to none).
func TestBulkCheckCatchesEveryWord(t *testing.T) {
	order := shuffledKeys(64, 7)
	s, _ := newBulkStore(order, true, nil)
	via := Direct{M: s.m}
	type word struct {
		addr, key uint64
		check     func() error
	}
	checkHash := func() error { return s.hash.Check(via, order, s.hnodes, s.vals, nil) }
	checkTree := func() error { return s.tree.Check(via, order, s.tnodes, s.vals, nil) }
	var words []word
	heads := make([]uint64, s.hash.n)
	for _, key := range order {
		heads[s.hash.bucket(key)] = key
	}
	for b, key := range heads {
		words = append(words, word{s.hash.buckets + uint64(b)*mem.LineBytes, key, checkHash})
	}
	words = append(words, word{s.tree.rootCell, order[0], checkTree})
	for _, key := range order {
		for _, off := range []uint64{nodeKey, nodeVal, nodeNext} {
			words = append(words, word{s.hnodes[key-1] + off, key, checkHash})
		}
		for _, off := range []uint64{treeKey, treeVal, treeLeft, treeRight} {
			words = append(words, word{s.tnodes[key-1] + off, key, checkTree})
		}
	}
	for _, w := range words {
		old := via.Load(w.addr)
		via.Store(w.addr, old+mem.LineBytes)
		err := w.check()
		via.Store(w.addr, old)
		switch {
		case err == nil:
			t.Errorf("word %#x (key %d) changed: Check passed", w.addr, w.key)
		case w.key != 0 && !strings.HasPrefix(err.Error(), fmt.Sprintf("key %d: ", w.key)):
			t.Errorf("word %#x (key %d) changed: %q names another key", w.addr, w.key, err)
		}
	}
	if err := checkHash(); err != nil {
		t.Fatalf("restored hash: %v", err)
	}
	if err := checkTree(); err != nil {
		t.Fatalf("restored tree: %v", err)
	}
}
