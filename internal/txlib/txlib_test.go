package txlib

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sim"
)

func setup(t *testing.T) (Direct, *Arena) {
	t.Helper()
	p := machine.DefaultParams(1)
	p.MemBytes = 1 << 24
	m := machine.New(p)
	return Direct{M: m}, NewArena(m, nil, 1<<22)
}

func TestArenaLineAlignment(t *testing.T) {
	d, a := setup(t)
	_ = d
	x := a.Alloc(1)
	y := a.Alloc(65)
	if x%64 != 0 || y%64 != 0 {
		t.Fatal("allocations not line-aligned")
	}
	if y-x != 64 {
		t.Fatalf("1-byte alloc consumed %d bytes, want 64", y-x)
	}
}

func TestArenaGrowsWhenExhausted(t *testing.T) {
	p := machine.DefaultParams(1)
	m := machine.New(p)
	a := NewArena(m, nil, 128)
	a.Alloc(64)
	if left := a.size - a.off; left != 64 {
		t.Fatalf("%d bytes left in the chunk, want 64", left)
	}
	addrs := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		addr := a.Alloc(128) // forces repeated refills
		if addrs[addr] {
			t.Fatalf("refill returned duplicate address %#x", addr)
		}
		addrs[addr] = true
		m.Mem.Write64(addr, uint64(i))
	}
}

// listKeys returns l's keys in order.
func listKeys(via Mem, l List) []uint64 {
	var keys []uint64
	l.ForEach(via, func(k, _ uint64) { keys = append(keys, k) })
	return keys
}

func TestListSortedInsert(t *testing.T) {
	d, a := setup(t)
	l := NewList(d, a)
	keys := []uint64{5, 1, 9, 3, 7}
	for _, k := range keys {
		if !l.Insert(d, a, k, k*10) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if l.Insert(d, a, 5, 0) {
		t.Fatal("duplicate insert succeeded")
	}
	got := listKeys(d, l)
	want := []uint64{1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
	l.ForEach(d, func(k, v uint64) {
		if v != k*10 {
			t.Fatalf("key %d holds %d, want %d", k, v, k*10)
		}
	})
	if l.Len(d) != 5 {
		t.Fatalf("Len = %d", l.Len(d))
	}
}

func TestListForEachOrder(t *testing.T) {
	d, a := setup(t)
	l := NewList(d, a)
	for _, k := range []uint64{4, 2, 8} {
		l.Insert(d, a, k, k)
	}
	var seen []uint64
	l.ForEach(d, func(k, v uint64) { seen = append(seen, k) })
	if len(seen) != 3 || seen[0] != 2 || seen[2] != 8 {
		t.Fatalf("ForEach order %v", seen)
	}
}

func TestListPropertySortedAndComplete(t *testing.T) {
	d, a := setup(t)
	if err := quick.Check(func(seed uint64) bool {
		l := NewList(d, a)
		r := sim.NewRand(seed)
		ref := map[uint64]bool{}
		for i := 0; i < 40; i++ {
			k := uint64(r.Intn(60))
			inserted := l.Insert(d, a, k, k)
			if inserted == ref[k] {
				return false // must succeed iff absent
			}
			ref[k] = true
		}
		keys := listKeys(d, l)
		if len(keys) != len(ref) {
			return false
		}
		return sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHashInsertGetRemove(t *testing.T) {
	d, a := setup(t)
	h := NewHash(d, a, 16)
	for k := uint64(0); k < 100; k++ {
		if !h.Insert(d, a, k, k+1000) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if h.Insert(d, a, 50, 0) {
		t.Fatal("duplicate insert succeeded")
	}
	if h.Len(d) != 100 {
		t.Fatalf("Len = %d", h.Len(d))
	}
	for k := uint64(0); k < 100; k++ {
		if v, ok := h.Get(d, k); !ok || v != k+1000 {
			t.Fatalf("Get(%d) = %d/%v", k, v, ok)
		}
	}
	if h.Contains(d, 1000) {
		t.Fatal("phantom key")
	}
	if !h.Remove(d, 42) || h.Remove(d, 42) {
		t.Fatal("Remove misbehaved")
	}
	if h.Len(d) != 99 {
		t.Fatalf("Len after remove = %d", h.Len(d))
	}
}

func TestHashBadBucketCountPanics(t *testing.T) {
	d, a := setup(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHash(d, a, 10)
}

// treeLen counts tr's nodes.
func treeLen(tr Tree, d Direct) int {
	n := 0
	tr.ForEach(d, func(_, _ uint64) { n++ })
	return n
}

func TestTreeInsertGetDelete(t *testing.T) {
	d, a := setup(t)
	tr := NewTree(d, a)
	keys := []uint64{50, 20, 80, 10, 30, 70, 90, 25, 35}
	for _, k := range keys {
		if !tr.Insert(d, a, k, k*2) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if tr.Insert(d, a, 50, 0) {
		t.Fatal("duplicate insert succeeded")
	}
	if n := treeLen(tr, d); n != len(keys) {
		t.Fatalf("%d nodes, want %d", n, len(keys))
	}
	for _, k := range keys {
		if v, ok := tr.Get(d, k); !ok || v != k*2 {
			t.Fatalf("Get(%d) = %d/%v", k, v, ok)
		}
	}
	// Delete a leaf, a one-child node, and a two-child node (the root).
	for _, k := range []uint64{25, 90, 50} {
		if !tr.Delete(d, k) {
			t.Fatalf("delete %d failed", k)
		}
		if _, ok := tr.Get(d, k); ok {
			t.Fatalf("key %d still present", k)
		}
	}
	if tr.Delete(d, 999) {
		t.Fatal("deleted phantom")
	}
	var inorder []uint64
	tr.ForEach(d, func(k, v uint64) { inorder = append(inorder, k) })
	if !sort.SliceIsSorted(inorder, func(i, j int) bool { return inorder[i] < inorder[j] }) {
		t.Fatalf("inorder not sorted: %v", inorder)
	}
	if len(inorder) != 6 {
		t.Fatalf("remaining = %d, want 6", len(inorder))
	}
}

func TestTreeScan(t *testing.T) {
	d, a := setup(t)
	tr := NewTree(d, a)
	for _, k := range []uint64{50, 20, 80, 10, 30, 70, 90, 25, 35} {
		tr.Insert(d, a, k, k*2)
	}
	// Unbounded scan from lo visits exactly the keys >= lo, in order.
	var got []uint64
	n := tr.Scan(d, 30, func(k, v, node uint64) bool {
		if v != k*2 {
			t.Fatalf("Scan(%d) value %d", k, v)
		}
		if node == 0 {
			t.Fatal("Scan passed a zero node address")
		}
		got = append(got, k)
		return true
	})
	want := []uint64{30, 35, 50, 70, 80, 90}
	if n != len(want) || len(got) != len(want) {
		t.Fatalf("Scan visited %d pairs (%v), want %v", n, got, want)
	}
	for i, k := range want {
		if got[i] != k {
			t.Fatalf("Scan order %v, want %v", got, want)
		}
	}
	// Bounded scan stops as soon as f returns false.
	left := 3
	got = got[:0]
	n = tr.Scan(d, 0, func(k, _, _ uint64) bool { got = append(got, k); left--; return left > 0 })
	if n != 3 || len(got) != 3 || got[0] != 10 || got[2] != 25 {
		t.Fatalf("bounded Scan visited %v (n=%d), want first three keys", got, n)
	}
	// lo above the max key visits nothing.
	if n := tr.Scan(d, 1000, func(_, _, _ uint64) bool { return true }); n != 0 {
		t.Fatalf("Scan past max visited %d pairs", n)
	}
}

func TestTreeSetUpserts(t *testing.T) {
	d, a := setup(t)
	tr := NewTree(d, a)
	tr.Set(d, a, 5, 1)
	tr.Set(d, a, 5, 2)
	if v, _ := tr.Get(d, 5); v != 2 {
		t.Fatalf("Set did not update: %d", v)
	}
	if treeLen(tr, d) != 1 {
		t.Fatal("Set duplicated node")
	}
}

func TestTreePropertyMatchesMap(t *testing.T) {
	d, a := setup(t)
	if err := quick.Check(func(seed uint64) bool {
		tr := NewTree(d, a)
		r := sim.NewRand(seed)
		ref := map[uint64]uint64{}
		for i := 0; i < 120; i++ {
			k := uint64(r.Intn(80))
			switch r.Intn(3) {
			case 0:
				ins := tr.Insert(d, a, k, k)
				if _, exists := ref[k]; exists == ins {
					return false
				}
				ref[k] = k
			case 1:
				del := tr.Delete(d, k)
				if _, exists := ref[k]; exists != del {
					return false
				}
				delete(ref, k)
			case 2:
				_, got := tr.Get(d, k)
				if _, exists := ref[k]; exists != got {
					return false
				}
			}
		}
		return treeLen(tr, d) == len(ref)
	}, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeDepthReasonableWithRandomKeys(t *testing.T) {
	d, a := setup(t)
	tr := NewTree(d, a)
	r := sim.NewRand(7)
	n := 0
	for n < 1024 {
		if tr.Insert(d, a, r.Uint64(), 0) {
			n++
		}
	}
	var depth func(n uint64) int
	depth = func(n uint64) int {
		if n == 0 {
			return 0
		}
		return 1 + max(depth(d.Load(n+treeLeft)), depth(d.Load(n+treeRight)))
	}
	if dep := depth(d.Load(tr.rootCell)); dep > 30 {
		t.Fatalf("depth %d too large for 1024 random keys", dep)
	}
}
