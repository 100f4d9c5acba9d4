package txlib

// Tree is an unbalanced binary search tree mapping uint64 keys to uint64
// values — the stand-in for STAMP's red-black trees in vacation (with
// randomized insertion order the expected depth is O(log n), preserving
// the paper-relevant property: per-operation transactional footprints of
// a few dozen lines). Node layout (one line per node):
//
//	word 0: key
//	word 1: value
//	word 2: left-child address
//	word 3: right-child address
//
// The root pointer lives in its own cell so that root changes are
// transactional like any other link update.
type Tree struct {
	rootCell uint64 // address of the cell holding the root node address
}

const (
	treeKey   = 0
	treeVal   = 8
	treeLeft  = 16
	treeRight = 24
)

// NewTree allocates an empty tree.
func NewTree(via Mem, a *Arena) Tree {
	cell := a.Alloc(8)
	via.Store(cell, 0)
	return Tree{rootCell: cell}
}

// NewNode allocates one node: Insert's, or one for Build.
func (t Tree) NewNode(a *Arena) uint64 { return a.Alloc(32) }

// Insert adds key→val; it returns false if key exists.
func (t Tree) Insert(via Mem, a *Arena, key, val uint64) bool {
	cell := t.rootCell
	for {
		n := via.Load(cell)
		if n == 0 {
			t.insertAt(via, a, cell, key, val)
			return true
		}
		k := via.Load(n + treeKey)
		switch {
		case key == k:
			return false
		case key < k:
			cell = n + treeLeft
		default:
			cell = n + treeRight
		}
	}
}

// Get returns the value for key.
func (t Tree) Get(via Mem, key uint64) (uint64, bool) {
	n := via.Load(t.rootCell)
	for n != 0 {
		k := via.Load(n + treeKey)
		switch {
		case key == k:
			return via.Load(n + treeVal), true
		case key < k:
			n = via.Load(n + treeLeft)
		default:
			n = via.Load(n + treeRight)
		}
	}
	return 0, false
}

// Set updates the value for an existing key, or inserts it.
func (t Tree) Set(via Mem, a *Arena, key, val uint64) {
	cell := t.rootCell
	for {
		n := via.Load(cell)
		if n == 0 {
			t.insertAt(via, a, cell, key, val)
			return
		}
		k := via.Load(n + treeKey)
		switch {
		case key == k:
			via.Store(n+treeVal, val)
			return
		case key < k:
			cell = n + treeLeft
		default:
			cell = n + treeRight
		}
	}
}

func (t Tree) insertAt(via Mem, a *Arena, cell, key, val uint64) {
	node := t.NewNode(a)
	via.Store(node+treeKey, key)
	via.Store(node+treeVal, val)
	via.Store(node+treeLeft, 0)
	via.Store(node+treeRight, 0)
	via.Store(cell, node)
}

// Delete removes key, reporting whether it was present. Two-child nodes
// are replaced by their in-order successor, as in the textbook algorithm.
func (t Tree) Delete(via Mem, key uint64) bool {
	cell := t.rootCell
	for {
		n := via.Load(cell)
		if n == 0 {
			return false
		}
		k := via.Load(n + treeKey)
		switch {
		case key < k:
			cell = n + treeLeft
		case key > k:
			cell = n + treeRight
		default:
			t.unlink(via, cell, n)
			return true
		}
	}
}

func (t Tree) unlink(via Mem, cell, n uint64) {
	left := via.Load(n + treeLeft)
	right := via.Load(n + treeRight)
	switch {
	case left == 0:
		via.Store(cell, right)
	case right == 0:
		via.Store(cell, left)
	default:
		// Find the in-order successor (leftmost of the right subtree),
		// splice it out, and move its payload into n.
		scell := n + treeRight
		s := via.Load(scell)
		for {
			l := via.Load(s + treeLeft)
			if l == 0 {
				break
			}
			scell = s + treeLeft
			s = l
		}
		via.Store(n+treeKey, via.Load(s+treeKey))
		via.Store(n+treeVal, via.Load(s+treeVal))
		via.Store(scell, via.Load(s+treeRight))
	}
}

// Scan visits pairs with key >= lo in ascending key order, passing each
// node's key, value, and node address to f, and stops when f returns
// false. It returns the number of pairs visited. Unlike ForEach it is
// meant to run inside transactions: the visit is bounded by f, so the
// transactional footprint is the root-to-lo path plus the visited nodes
// — the range-scan shape OLTP workloads need.
func (t Tree) Scan(via Mem, lo uint64, f func(key, val, node uint64) bool) int {
	visited := 0
	more := true
	t.scan(via, via.Load(t.rootCell), lo, f, &visited, &more)
	return visited
}

func (t Tree) scan(via Mem, n, lo uint64, f func(key, val, node uint64) bool, visited *int, more *bool) {
	if n == 0 || !*more {
		return
	}
	k := via.Load(n + treeKey)
	if k >= lo {
		// Left subtree can still hold keys >= lo.
		t.scan(via, via.Load(n+treeLeft), lo, f, visited, more)
		if !*more {
			return
		}
		*visited++
		if !f(k, via.Load(n+treeVal), n) {
			*more = false
			return
		}
	}
	t.scan(via, via.Load(n+treeRight), lo, f, visited, more)
}

// ForEach visits every pair in key order (validation only; recursive).
func (t Tree) ForEach(via Mem, f func(key, val uint64)) {
	t.walk(via, via.Load(t.rootCell), f)
}

func (t Tree) walk(via Mem, n uint64, f func(key, val uint64)) {
	if n == 0 {
		return
	}
	t.walk(via, via.Load(n+treeLeft), f)
	f(via.Load(n+treeKey), via.Load(n+treeVal))
	t.walk(via, via.Load(n+treeRight), f)
}
