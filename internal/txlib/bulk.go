package txlib

import (
	"fmt"

	"repro/internal/mem"
)

// Bulk builds. Setup code that would Insert keys 1..n one by one into a
// fresh Hash or Tree can build it whole instead: allocate each key's node
// with NewNode, in the order the keys would be inserted, then call Build.
// Build computes every link on the host and stores each word once — the
// bucket heads or the root cell, then the nodes in insertion order, which
// is ascending address order — and loads nothing, where the Insert loop
// pays a root-to-leaf descent of dependent loads per key. Memory
// afterwards is word for word what the Insert loop leaves. Check goes
// over the same words in the same order, comparing instead of storing.
//
// The arguments are the same for all four: order lists the keys 1..n,
// each once, in insertion order; nodes[k-1] and vals[k-1] are key k's
// node and value; scratch is working space — h's bucket count in words
// for a Hash, 3n for a Tree — that Build and Check allocate for
// themselves when it is shorter. The keys every setup structure in this
// module is built over are dense ids, so indexing by key replaces a sort.

// image stores a structure's words (Build) or compares memory with them
// (Check), stopping at the first difference.
type image struct {
	via   Mem
	check bool
	err   error
}

// put stores or checks val at addr, which is the named word of key's
// part of the structure (key 0: of no key's).
func (im *image) put(addr, val, key uint64, what string) bool {
	if !im.check {
		im.via.Store(addr, val)
		return true
	}
	got := im.via.Load(addr)
	switch {
	case got == val:
		return true
	case key == 0:
		im.err = fmt.Errorf("%s at %#x holds %#x, want 0", what, addr, got)
	default:
		im.err = fmt.Errorf("key %d: %s at %#x holds %#x, want %#x", key, what, addr, got, val)
	}
	return false
}

// Build stores the hash that inserting order's keys would leave.
func (h Hash) Build(via Mem, order, nodes, vals, scratch []uint64) {
	im := image{via: via}
	h.image(&im, order, nodes, vals, scratch)
}

// Check reports the first word that differs from what Build stores,
// naming its key.
func (h Hash) Check(via Mem, order, nodes, vals, scratch []uint64) error {
	im := image{via: via, check: true}
	h.image(&im, order, nodes, vals, scratch)
	return im.err
}

// image puts every bucket head, then every chain node. Insert pushes a
// node on its bucket's chain, so a bucket's head is the node inserted
// there last and a node's next is the one inserted there before it:
// last[b] is the key inserted last in bucket b (0: none), first over all
// of order and then over the part of it put so far.
func (h Hash) image(im *image, order, nodes, vals, scratch []uint64) {
	last := scratch
	if uint64(len(last)) < h.n {
		last = make([]uint64, h.n)
	}
	last = last[:h.n]
	clear(last)
	for _, key := range order {
		last[h.bucket(key)] = key
	}
	for b, key := range last {
		head := uint64(0)
		if key != 0 {
			head = nodes[key-1]
		}
		if !im.put(h.buckets+uint64(b)*mem.LineBytes, head, key, "hash bucket head") {
			return
		}
	}
	clear(last)
	for _, key := range order {
		b := h.bucket(key)
		next := uint64(0)
		if prev := last[b]; prev != 0 {
			next = nodes[prev-1]
		}
		node := nodes[key-1]
		if !im.put(node+nodeKey, key, key, "hash node's key") ||
			!im.put(node+nodeVal, vals[key-1], key, "hash node's value") ||
			!im.put(node+nodeNext, next, key, "hash node's next link") {
			return
		}
		last[b] = key
	}
}

// Build stores the tree that inserting order's keys would leave.
func (t Tree) Build(via Mem, order, nodes, vals, scratch []uint64) {
	im := image{via: via}
	t.image(&im, order, nodes, vals, scratch)
}

// Check reports the first word that differs from what Build stores,
// naming its key.
func (t Tree) Check(via Mem, order, nodes, vals, scratch []uint64) error {
	im := image{via: via, check: true}
	t.image(&im, order, nodes, vals, scratch)
	return im.err
}

// image puts the root cell, then every node. The tree Insert builds from
// keys in order is their Cartesian tree with insertion position as the
// priority: key a is an ancestor of key x when a was inserted before x
// and before every key between the two. One pass over the keys in
// ascending order builds it, keeping the right spine built so far on a
// stack: a new key adopts as its left child the last spine node it pops
// (those inserted after it), and becomes the right child of the new top.
// left[k-1] and right[k-1] are key k's children; pos[k-1] is key k's
// insertion position, and the stack, of insertion positions, reuses
// pos[:depth], whose keys the pass has gone by: it never holds more
// entries than keys already read.
func (t Tree) image(im *image, order, nodes, vals, scratch []uint64) {
	n := len(order)
	if len(scratch) < 3*n {
		scratch = make([]uint64, 3*n)
	}
	left, right, pos := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	const unset = ^uint64(0)
	for k := range pos {
		pos[k] = unset
	}
	for i, key := range order {
		if pos[key-1] != unset {
			panic(fmt.Sprintf("txlib: key %d is twice in a bulk build's order", key))
		}
		pos[key-1] = uint64(i)
	}
	depth := 0
	for k := 0; k < n; k++ {
		i := pos[k]
		child := uint64(0)
		for depth > 0 && pos[depth-1] > i {
			depth--
			child = nodes[order[pos[depth]]-1]
		}
		left[k], right[k] = child, 0
		if depth > 0 {
			right[order[pos[depth-1]]-1] = nodes[k]
		}
		pos[depth] = i
		depth++
	}

	root, rootKey := uint64(0), uint64(0)
	if n > 0 {
		rootKey = order[0]
		root = nodes[rootKey-1]
	}
	if !im.put(t.rootCell, root, rootKey, "tree root cell") {
		return
	}
	for _, key := range order {
		node := nodes[key-1]
		if !im.put(node+treeKey, key, key, "tree node's key") ||
			!im.put(node+treeVal, vals[key-1], key, "tree node's value") ||
			!im.put(node+treeLeft, left[key-1], key, "tree node's left link") ||
			!im.put(node+treeRight, right[key-1], key, "tree node's right link") {
			return
		}
	}
}
