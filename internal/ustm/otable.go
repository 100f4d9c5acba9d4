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
type otable struct {
	*machine.Table[row]
	base uint64 // simulated address of row 0; rows are line-spaced
	mask uint64
}

type row struct {
	locked  bool
	entries []*entry
}

// entry is one ownership record: the owned line (tag), the permission
// held, and the owning transactions (multiple only for read-sharing).
type entry struct {
	tag    uint64
	write  bool
	owners []*Thread
}

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

// find returns the entry for line in this row's chain, or nil.
func (r *row) find(line uint64) *entry {
	for _, e := range r.entries {
		if e.tag == line {
			return e
		}
	}
	return nil
}

// remove deletes e from the chain.
func (r *row) remove(e *entry) {
	for i, x := range r.entries {
		if x == e {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			return
		}
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
