package ustm

import (
	"repro/internal/machine"
	"repro/internal/mem"
)

// otable is the ownership table of Figure 3: a chained hash table with one
// record per transactionally-held cache line. Row contents are Go values
// (the simulation engine serializes processors, so no locking is needed
// for correctness), but each row also owns a distinct simulated-memory
// line so that every lookup and update generates the cache and coherence
// traffic a real otable would — which is exactly what HyTM's instrumented
// hardware transactions and its false-conflict pathology depend on.
//
// The row lock models the paper's locked head-entry state: it is held
// across multi-step chain updates, and other transactions that find a row
// locked back off and retry, paying for the contention in simulated time.
//
// The rows live in the machine's arena (machine.TableOf): a run dirties
// the rows it inserts into, and only those are cleared for the next one.
// The records live in the table's own free list, grown a chunk at a time,
// so a steady-state insert allocates nothing.
type otable struct {
	*machine.Table[row]
	base uint64 // simulated address of row 0; rows are line-spaced
	mask uint64
	free *entry // recycled records, linked through next
}

type row struct {
	locked bool
	head   *entry // the chain, in insertion order
}

// entry is one ownership record: the owned line (tag), the permission
// held, and the owning transactions (multiple only for read-sharing).
type entry struct {
	tag    uint64
	write  bool
	next   *entry
	owners []*Thread
	own    [4]*Thread // owners' first backing array
	// pins counts the barriers parked with this record in hand. A record
	// that leaves its row pinned is never recycled: it stays what its
	// holder last saw, a record of its line with nobody left on it.
	pins int
}

// recordChunk is how many records the free list grows by.
const recordChunk = 128

func newOTable(m *machine.Machine, rows int) *otable {
	base := m.Mem.Sbrk(uint64(rows) * mem.LineBytes)
	return &otable{
		Table: machine.TableOf[row](m, rows),
		base:  base,
		mask:  uint64(rows - 1),
	}
}

// index hashes a data line to a row (GET_INDEX of Algorithm 1).
func (o *otable) index(line uint64) uint64 {
	return (line * 0x9E3779B97F4A7C15 >> 17) & o.mask
}

// rowAddr returns the simulated address of row i.
func (o *otable) rowAddr(i uint64) uint64 { return o.base + i*mem.LineBytes }

// row returns row i's Go-side state.
func (o *otable) row(i uint64) *row { return &o.Rows[i] }

// find returns the entry for line, or nil.
func (o *otable) find(line uint64) *entry { return o.row(o.index(line)).find(line) }

// find returns the entry for line in this row's chain, or nil.
func (r *row) find(line uint64) *entry {
	for e := r.head; e != nil; e = e.next {
		if e.tag == line {
			return e
		}
	}
	return nil
}

// insert appends a record of line, owned by t alone, to r's chain.
func (o *otable) insert(r *row, line uint64, write bool, t *Thread) {
	if o.free == nil {
		chunk := make([]entry, recordChunk)
		for i := range chunk {
			chunk[i].next, o.free = o.free, &chunk[i]
			chunk[i].owners = chunk[i].own[:0]
		}
	}
	e := o.free
	o.free = e.next
	e.tag, e.write, e.next, e.owners = line, write, nil, append(e.owners[:0], t)
	tail := &r.head
	for *tail != nil {
		tail = &(*tail).next
	}
	*tail = e
}

// remove unlinks e from r's chain and recycles it, unless it is pinned.
func (o *otable) remove(r *row, e *entry) {
	link := &r.head
	for *link != e {
		link = &(*link).next
	}
	*link = e.next
	if e.pins == 0 {
		e.next, o.free = o.free, e
	}
}

// hasOwner reports whether t is among e's owners.
func (e *entry) hasOwner(t *Thread) bool {
	for _, o := range e.owners {
		if o == t {
			return true
		}
	}
	return false
}

// soleOwner reports whether t is the only owner.
func (e *entry) soleOwner(t *Thread) bool {
	return len(e.owners) == 1 && e.owners[0] == t
}

// dropOwner removes t from e's owners; returns true if e has no owners
// left.
func (e *entry) dropOwner(t *Thread) bool {
	for i, o := range e.owners {
		if o == t {
			e.owners = append(e.owners[:i], e.owners[i+1:]...)
			break
		}
	}
	return len(e.owners) == 0
}
