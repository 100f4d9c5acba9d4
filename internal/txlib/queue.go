package txlib

import (
	"repro/internal/mem"
	"repro/internal/tm"
)

// Queue is a bounded FIFO of uint64 values in simulated memory, designed
// for transactional use with blocking semantics: Push and Pop call
// tm.Tx.Retry when the queue is full or empty, so producers and consumers
// wait by descheduling (Section 6's transactional waiting) rather than
// polling.
//
// Layout: head and tail counters on their own lines (so producers and
// consumers do not false-share), followed by capacity line-sized slots.
type Queue struct {
	head     uint64
	tail     uint64
	slots    uint64
	capacity uint64
}

// NewQueue allocates a queue with the given capacity (in elements).
func NewQueue(via Mem, a *Arena, capacity uint64) Queue {
	if capacity == 0 {
		panic("txlib: queue capacity must be positive")
	}
	q := Queue{
		head:     a.Alloc(mem.LineBytes),
		tail:     a.Alloc(mem.LineBytes),
		slots:    a.Alloc(capacity * mem.LineBytes),
		capacity: capacity,
	}
	via.Store(q.head, 0)
	via.Store(q.tail, 0)
	return q
}

// Cap returns the queue capacity.
func (q Queue) Cap() uint64 { return q.capacity }

// TailAddr exposes the tail counter's address (for zero-cost setup-time
// filling through a Direct accessor).
func (q Queue) TailAddr() uint64 { return q.tail }

// SlotAddr returns the address of the slot logical index i maps to.
func (q Queue) SlotAddr(i uint64) uint64 {
	return q.slots + i%q.capacity*mem.LineBytes
}

// Len returns the current element count (via any accessor).
func (q Queue) Len(via Mem) uint64 {
	return via.Load(q.tail) - via.Load(q.head)
}

// Push appends v, waiting (transactionally) while the queue is full.
func (q Queue) Push(tx tm.Tx, v uint64) {
	head, tail := tx.Load(q.head), tx.Load(q.tail)
	if tail-head == q.capacity {
		tx.Retry()
	}
	tx.Store(q.slots+tail%q.capacity*mem.LineBytes, v)
	tx.Store(q.tail, tail+1)
}

// Pop removes and returns the oldest element, waiting (transactionally)
// while the queue is empty.
func (q Queue) Pop(tx tm.Tx) uint64 {
	head, tail := tx.Load(q.head), tx.Load(q.tail)
	if head == tail {
		tx.Retry()
	}
	v := tx.Load(q.slots + head%q.capacity*mem.LineBytes)
	tx.Store(q.head, head+1)
	return v
}

// TryPop removes the oldest element if present; it never waits.
func (q Queue) TryPop(tx tm.Tx) (uint64, bool) {
	head, tail := tx.Load(q.head), tx.Load(q.tail)
	if head == tail {
		return 0, false
	}
	v := tx.Load(q.slots + head%q.capacity*mem.LineBytes)
	tx.Store(q.head, head+1)
	return v, true
}
