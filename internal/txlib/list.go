package txlib

// List is a sorted singly-linked list of (key, value) pairs with a
// sentinel head node. Node layout (one line per node):
//
//	word 0: key
//	word 1: value
//	word 2: next-node address (0 = end)
//
// Insertion keeps keys strictly increasing; duplicate keys are rejected.
// This is the structure behind genome's high-contention sorted-insertion
// phase and vacation's per-customer reservation lists.
type List struct {
	head uint64 // sentinel node address
}

const (
	nodeKey  = 0
	nodeVal  = 8
	nodeNext = 16
)

// NewList allocates an empty list.
func NewList(via Mem, a *Arena) List {
	head := a.Alloc(24)
	via.Store(head+nodeNext, 0)
	return List{head: head}
}

// ListAt adopts an existing list by its sentinel address (for storing
// list handles inside other structures).
func ListAt(head uint64) List { return List{head: head} }

// Head returns the sentinel address.
func (l List) Head() uint64 { return l.head }

// Insert adds key→val in sorted position; it returns false (and leaves
// the list unchanged) if key is already present.
func (l List) Insert(via Mem, a *Arena, key, val uint64) bool {
	prev := l.head
	next := via.Load(prev + nodeNext)
	for next != 0 {
		k := via.Load(next + nodeKey)
		if k == key {
			return false
		}
		if k > key {
			break
		}
		prev = next
		next = via.Load(next + nodeNext)
	}
	n := a.Alloc(24)
	via.Store(n+nodeKey, key)
	via.Store(n+nodeVal, val)
	via.Store(n+nodeNext, next)
	via.Store(prev+nodeNext, n)
	return true
}

// Len counts elements (O(n); intended for setup and validation).
func (l List) Len(via Mem) int {
	count := 0
	for n := via.Load(l.head + nodeNext); n != 0; n = via.Load(n + nodeNext) {
		count++
	}
	return count
}

// ForEach visits every (key, value) pair in order.
func (l List) ForEach(via Mem, f func(key, val uint64)) {
	for n := via.Load(l.head + nodeNext); n != 0; n = via.Load(n + nodeNext) {
		f(via.Load(n+nodeKey), via.Load(n+nodeVal))
	}
}
