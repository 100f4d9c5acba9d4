// Package txlib provides an allocator and pointer-based data structures
// (sorted linked list, hash set, binary search tree) that live entirely in
// simulated memory and perform every access through a generic accessor —
// so the same structure code runs inside any TM system's transactions,
// non-transactionally, or during workload setup.
//
// Nodes are line-aligned: with cache-line-granularity conflict detection,
// packing multiple nodes per line would create false conflicts that STAMP's
// allocator avoids in practice.
//
// Paper: §5.2 (the STAMP workloads these structures serve) and §6
// (transactional data-structure composition).
package txlib

import (
	"repro/internal/machine"
	"repro/internal/mem"
)

// Mem is the minimal accessor the structures need. Both tm.Tx and tm.Exec
// satisfy it, as does Direct (zero-cost setup access).
type Mem interface {
	Load(addr uint64) uint64
	Store(addr, val uint64)
}

// Direct accesses simulated memory with no timing or protection checks;
// use it only for pre-run setup and post-run validation.
type Direct struct{ M *machine.Machine }

var _ Mem = Direct{}

// Load implements Mem.
func (d Direct) Load(addr uint64) uint64 { return d.M.Mem.Read64(addr) }

// Store implements Mem.
func (d Direct) Store(addr, val uint64) { d.M.Mem.Write64(addr, val) }

// Arena is a per-thread bump allocator over reserved regions. Because
// each thread allocates from its own arena, in-transaction allocation
// needs no shared state — mirroring a freelist-based malloc that almost
// never reaches the sbrk syscall. Memory allocated by aborted
// transactions is leaked, as in any eager-versioning TM without
// compensation, so arenas grow (reserving a fresh chunk) when exhausted.
type Arena struct {
	m    *machine.Machine
	base uint64
	off  uint64
	size uint64
	p    *machine.Proc // charged for allocation work; nil for setup arenas
}

// AllocCycles is the charged cost of one in-simulation allocation.
const AllocCycles = 8

// NewArena reserves size bytes of simulated memory. p may be nil for
// setup-time arenas (no cycles charged).
func NewArena(m *machine.Machine, p *machine.Proc, size uint64) *Arena {
	if size < mem.LineBytes {
		size = mem.LineBytes
	}
	return &Arena{m: m, base: m.Mem.Sbrk(size), size: size, p: p}
}

// Alloc returns a line-aligned block of at least bytes bytes.
func (a *Arena) Alloc(bytes uint64) uint64 {
	bytes = (bytes + mem.LineBytes - 1) / mem.LineBytes * mem.LineBytes
	if a.off+bytes > a.size {
		// Refill: reserve a fresh chunk (at least doubling, so refills
		// stay rare and cheap like a real allocator's).
		chunk := a.size
		if chunk < bytes {
			chunk = bytes
		}
		a.base = a.m.Mem.Sbrk(chunk)
		a.size = chunk
		a.off = 0
	}
	addr := a.base + a.off
	a.off += bytes
	if a.p != nil {
		a.p.Elapse(AllocCycles)
	}
	return addr
}
