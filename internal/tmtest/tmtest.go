// Package tmtest provides black-box correctness tooling for TM systems:
// a recording wrapper that captures every committed transaction's reads
// and writes, and a serializability checker that searches for a serial
// order explaining the recorded history. Any TM implementation in this
// repository can be dropped under the recorder and fuzzed.
//
// Paper: §2 (the serializability and strong-atomicity semantics the
// checker enforces).
package tmtest

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
)

// Access is one (address, value) observation.
type Access struct {
	Addr uint64
	Val  uint64
}

// TxRecord is one committed transaction: the values it observed for the
// addresses it read before writing them, and the final values it wrote.
type TxRecord struct {
	Proc   int
	Reads  []Access
	Writes []Access
}

// Recorder wraps a tm.System and captures the history of committed
// transactions. The simulation engine serializes processors, so no
// locking is needed.
type Recorder struct {
	inner   tm.System
	History []TxRecord
}

// NewRecorder wraps sys.
func NewRecorder(sys tm.System) *Recorder { return &Recorder{inner: sys} }

// Name implements tm.System.
func (r *Recorder) Name() string { return r.inner.Name() + "+recorded" }

// Stats implements tm.System.
func (r *Recorder) Stats() *tm.Stats { return r.inner.Stats() }

// Exec implements tm.System.
func (r *Recorder) Exec(p *machine.Proc) tm.Exec {
	return &recExec{r: r, inner: r.inner.Exec(p), proc: p.ID()}
}

type recExec struct {
	r     *Recorder
	inner tm.Exec
	proc  int

	// current attempt's observations (reset on each body invocation,
	// since aborted attempts re-execute): the first value read of each
	// word not yet written, and the writes — a speculative write buffer,
	// whose length is a closed nest's savepoint.
	reads, writes mem.WordLog
}

var _ tm.Exec = (*recExec)(nil)

func (e *recExec) Proc() *machine.Proc  { return e.inner.Proc() }
func (e *recExec) Load(a uint64) uint64 { return e.inner.Load(a) }
func (e *recExec) Store(a, v uint64)    { e.inner.Store(a, v) }

// Atomic implements tm.Exec: the inner body is wrapped so that each
// (re-)execution starts a fresh observation set; the record of the final
// (committed) execution is appended after Atomic returns. No simulated
// time passes between the inner commit's completion and the append for
// systems whose Atomic returns without further scheduling points after
// commit; for eager STMs whose entry release yields, the checker's
// order search (rather than strict append order) absorbs the skew.
func (e *recExec) Atomic(body func(tm.Tx)) {
	e.inner.Atomic(func(tx tm.Tx) {
		e.reads.Reset()
		e.writes.Reset()
		body(recTx{e: e, inner: tx})
	})
	rec := TxRecord{Proc: e.proc}
	e.reads.Words(func(a, v uint64) { rec.Reads = append(rec.Reads, Access{Addr: a, Val: v}) })
	e.writes.Words(func(a, v uint64) { rec.Writes = append(rec.Writes, Access{Addr: a, Val: v}) })
	e.r.History = append(e.r.History, rec)
}

type recTx struct {
	e     *recExec
	inner tm.Tx
}

var _ tm.Tx = recTx{}

func (t recTx) Load(addr uint64) uint64 {
	v := t.inner.Load(addr)
	e := t.e
	// Record only reads of values this transaction did not itself write,
	// and only the first such read per address (later reads of the same
	// address must return the same value under isolation anyway).
	if _, wrote := e.writes.Get(addr); !wrote {
		if _, seen := e.reads.Get(addr); !seen {
			e.reads.Put(addr, v)
		}
	}
	return v
}

func (t recTx) Store(addr, val uint64) {
	t.inner.Store(addr, val)
	t.e.writes.Put(addr, val)
}

func (t recTx) Abort() { t.inner.Abort() }

// Nested records through the nest, keeping a savepoint over the write
// observations: a partial abort reverts recorded writes (the data never
// committed) while keeping recorded reads (the transaction really did
// observe those values).
func (t recTx) Nested(body func()) bool {
	save := t.e.writes.Len()
	committed := t.inner.Nested(body)
	if !committed {
		t.e.writes.Truncate(save)
	}
	// On commit the nest's versions are kept: they now belong to the
	// enclosing nest, which may still abort past them.
	return committed
}
func (t recTx) Retry()            { t.inner.Retry() }
func (t recTx) Syscall()          { t.inner.Syscall() }
func (t recTx) OnCommit(f func()) { t.inner.OnCommit(f) }

// CheckSerializable searches for a serial order of the history that is
// consistent with every transaction's observed reads, starting from the
// given initial memory image (addresses absent from the map read as
// zero). It returns nil if such an order exists. The search is a
// depth-first backtracking over candidate next-transactions (those whose
// reads match the current replay state), biased toward history order,
// that never backtracks over a read-only record's place; a step budget
// bounds pathological cases.
func CheckSerializable(history []TxRecord, initial map[uint64]uint64) error {
	state := make(map[uint64]uint64, len(initial))
	for k, v := range initial {
		state[k] = v
	}
	used := make([]bool, len(history))
	steps := 0
	const maxSteps = 2_000_000
	var search func(done int) bool
	search = func(done int) bool {
		if done == len(history) {
			return true
		}
	next:
		for i, rec := range history {
			if used[i] {
				continue
			}
			steps++
			if steps > maxSteps {
				return false
			}
			for _, r := range rec.Reads {
				if state[r.Addr] != r.Val {
					continue next
				}
			}
			// Apply, recurse, undo.
			undo := make([]Access, 0, len(rec.Writes))
			for _, w := range rec.Writes {
				undo = append(undo, Access{Addr: w.Addr, Val: state[w.Addr]})
				state[w.Addr] = w.Val
			}
			used[i] = true
			if search(done + 1) {
				return true
			}
			used[i] = false
			for j := len(undo) - 1; j >= 0; j-- {
				state[undo[j].Addr] = undo[j].Val
			}
			if len(rec.Writes) == 0 {
				// A read-only record changes no state: if no order completes
				// with it placed here, none completes with it placed later.
				return false
			}
		}
		return false
	}
	if search(0) {
		return nil
	}
	if steps > maxSteps {
		return fmt.Errorf("tmtest: serializability search exceeded %d steps (inconclusive)", maxSteps)
	}
	return fmt.Errorf("tmtest: no serial order explains the %d-transaction history", len(history))
}

// EventLog is the recording machine.Observer tests subscribe
// (m.Observe(kinds, log), or through harness.Job.Observe): append-only,
// every event kept in the order the machine emitted it.
type EventLog struct{ Events []machine.TraceEvent }

// Event implements machine.Observer.
func (l *EventLog) Event(e machine.TraceEvent) { l.Events = append(l.Events, e) }
