package txlib

import (
	"fmt"

	"repro/internal/mem"
)

// Hash is a fixed-size chained hash map from uint64 keys to uint64
// values. Buckets are line-spaced so bucket heads never share a line
// (avoiding false conflicts between unrelated keys), and chain nodes
// reuse the List node layout. genome's segment-deduplication phase and
// its probe phase run on this structure.
type Hash struct {
	buckets uint64 // base address of the bucket array
	n       uint64 // bucket count (power of two)
}

// NewHash allocates a hash with n buckets (power of two).
func NewHash(via Mem, a *Arena, n uint64) Hash {
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("txlib: hash buckets %d must be a power of two", n))
	}
	base := a.Alloc(n * mem.LineBytes)
	for i := uint64(0); i < n; i++ {
		via.Store(base+i*mem.LineBytes, 0)
	}
	return Hash{buckets: base, n: n}
}

// bucket is key's bucket index.
func (h Hash) bucket(key uint64) uint64 { return (key * 0x9E3779B97F4A7C15 >> 13) & (h.n - 1) }

func (h Hash) bucketAddr(key uint64) uint64 { return h.buckets + h.bucket(key)*mem.LineBytes }

// NewNode allocates one chain node: Insert's, or one for Build.
func (h Hash) NewNode(a *Arena) uint64 { return a.Alloc(24) }

// Insert adds key→val; it returns false if key is already present.
func (h Hash) Insert(via Mem, a *Arena, key, val uint64) bool {
	b := h.bucketAddr(key)
	n := via.Load(b)
	for p := n; p != 0; p = via.Load(p + nodeNext) {
		if via.Load(p+nodeKey) == key {
			return false
		}
	}
	node := h.NewNode(a)
	via.Store(node+nodeKey, key)
	via.Store(node+nodeVal, val)
	via.Store(node+nodeNext, n)
	via.Store(b, node)
	return true
}

// Get returns the value for key.
func (h Hash) Get(via Mem, key uint64) (uint64, bool) {
	for p := via.Load(h.bucketAddr(key)); p != 0; p = via.Load(p + nodeNext) {
		if via.Load(p+nodeKey) == key {
			return via.Load(p + nodeVal), true
		}
	}
	return 0, false
}

// Contains reports key membership.
func (h Hash) Contains(via Mem, key uint64) bool {
	_, ok := h.Get(via, key)
	return ok
}

// Remove deletes key, reporting whether it was present.
func (h Hash) Remove(via Mem, key uint64) bool {
	b := h.bucketAddr(key)
	prev := uint64(0)
	for p := via.Load(b); p != 0; p = via.Load(p + nodeNext) {
		if via.Load(p+nodeKey) == key {
			next := via.Load(p + nodeNext)
			if prev == 0 {
				via.Store(b, next)
			} else {
				via.Store(prev+nodeNext, next)
			}
			return true
		}
		prev = p
	}
	return false
}

// Len counts entries (validation only).
func (h Hash) Len(via Mem) int {
	count := 0
	for i := uint64(0); i < h.n; i++ {
		for p := via.Load(h.buckets + i*mem.LineBytes); p != 0; p = via.Load(p + nodeNext) {
			count++
		}
	}
	return count
}
