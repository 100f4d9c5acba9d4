// Package tmtest provides black-box correctness tooling for TM systems:
// a recorder that captures a run's history — every committed
// transaction's reads and writes, every non-transactional access, and
// the order their stores reached memory — and one checker that decides
// each atomicity class as the acyclicity of that history's graph. Any TM
// implementation in this repository can be dropped under the recorder
// and fuzzed.
//
// Paper: §2 (the serializability and strong-atomicity semantics the
// checker enforces).
package tmtest

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
)

// Access is one (address, value) observation.
type Access struct {
	Addr uint64
	Val  uint64
}

// Node is one unit of a history: a committed transaction (Tx), or one
// non-transactional load (one read) or store (one write). A
// transaction's Reads are its distinct observations of words it had not
// yet written, and Late those of words it had, other than its own
// latest write; its Writes are the final value of each word it stored.
type Node struct {
	Proc   int
	Tx     bool
	Reads  []Access
	Late   []Access
	Writes []Access
}

// History is one recorded run: Nodes, each processor's in program
// order; Co, each node's store of each value it wrote in the order the
// stores reached memory (a committed transaction's committing attempt's
// last store of the value); Final, each written word's value after the
// run. Words start at 0, and no two stores write one value to one word,
// so a value names its writer.
type History struct {
	Nodes []Node
	Co    []Access
	Final []Access
}

// Class is an atomicity class: the guarantee Check decides.
type Class string

// The atomicity classes, strongest first, each one acyclicity axiom:
//   - Strong: acyclic(po ∪ rf ∪ co ∪ fr) over every node, and a
//     final-state node after each processor's last;
//   - Serializable ("serializable-only"): acyclic(rf ∪ co ∪ fr) over
//     the committed transactions and non-transactional loads: a
//     non-transactional reader may straddle a lazy commit's write-back;
//   - Weak: the same over the committed transactions alone:
//     non-transactional loads may see uncommitted eager state.
const (
	Strong       Class = "strong"
	Serializable Class = "serializable-only"
	Weak         Class = "weak"
)

// Check returns one cycle of class c's graph over h as an error, or nil
// if there is none. Each committed transaction's read must first return
// 0, a non-transactional store's value or a committed transaction's
// final value; above Weak, so must each non-transactional load. Below
// Strong, edges through a non-transactional store's value are dropped:
// no system outside the strong class orders such a store against the
// transactions it races. A history that passes a class passes those
// below it, whose edges are paths of its own.
func Check(h History, c Class) error {
	n := len(h.Nodes) // the final-state node's index
	in := func(i int) bool {
		return c == Strong || h.Nodes[i].Tx || c == Serializable && len(h.Nodes[i].Writes) == 0
	}
	name := func(i int) string {
		if i == n {
			return "the final state"
		}
		return fmt.Sprintf("node %d (p%d, tx %v)", i, h.Nodes[i].Proc, h.Nodes[i].Tx)
	}
	writer := map[Access]int{}
	for i, nd := range h.Nodes {
		for _, w := range nd.Writes {
			if _, dup := writer[w]; dup || w.Val == 0 {
				return fmt.Errorf("tmtest: %s stores %d to %#x, which names no one writer", name(i), w.Val, w.Addr)
			}
			writer[w] = i
		}
	}
	adj := make([][]int, n+1)
	add := func(from, to int) {
		if from != to {
			adj[from] = append(adj[from], to)
		}
	}
	// co over the included writers: next[a] is the node whose store
	// follows a's (-1: none yet); each word's initial 0 stands first.
	next, last := map[Access]int{}, map[uint64]Access{}
	for _, a := range h.Co {
		w, ok := writer[a]
		if _, placed := next[a]; !ok || placed || !in(w) {
			continue
		}
		p, seen := last[a.Addr]
		if seen {
			add(writer[p], w)
		} else {
			p = Access{a.Addr, 0}
		}
		next[p], next[a], last[a.Addr] = w, -1, a
	}
	// read adds r's rf edge, and fr to the store after the one it read.
	read := func(r int, a Access) error {
		if a.Val != 0 {
			w, ok := writer[a]
			if !ok {
				return fmt.Errorf("tmtest: %s reads %d from %#x, which no store left in memory", name(r), a.Val, a.Addr)
			}
			if !in(w) {
				return nil
			}
			add(w, r)
		}
		if s, ok := next[a]; ok && s >= 0 {
			add(r, s)
		}
		return nil
	}
	for i, nd := range h.Nodes {
		if !in(i) {
			continue
		}
		for _, w := range nd.Writes {
			if _, placed := next[w]; !placed {
				return fmt.Errorf("tmtest: %s's store of %d to %#x never reached memory", name(i), w.Val, w.Addr)
			}
		}
		for _, a := range nd.Reads {
			if err := read(i, a); err != nil {
				return err
			}
		}
		// A late read saw another store over the node's own earlier one,
		// which is co-before it: T -co-> w -rf-> T, or over the initial 0.
		for _, a := range nd.Late {
			if w, ok := writer[a]; ok && in(w) {
				add(i, w)
			} else if a.Val == 0 {
				return fmt.Errorf("tmtest: %s reads 0 from %#x over its own store", name(i), a.Addr)
			}
			if err := read(i, a); err != nil {
				return err
			}
		}
	}
	if c == Strong {
		prev := map[int]int{} // po, and every node before the final state
		for i, nd := range h.Nodes {
			if j, ok := prev[nd.Proc]; ok {
				add(j, i)
			}
			prev[nd.Proc] = i
			add(i, n)
		}
		for _, a := range h.Final {
			if err := read(n, a); err != nil {
				return err
			}
		}
	}
	if cyc := cycle(adj); cyc != nil {
		names := make([]string, len(cyc))
		for k, i := range cyc {
			names[k] = name(i)
		}
		return fmt.Errorf("tmtest: no %s order: %s", c, strings.Join(names, " → "))
	}
	return nil
}

// cycle returns one cycle of the graph adj, its first node repeated
// last, or nil if adj is acyclic: one depth-first pass.
func cycle(adj [][]int) []int {
	state := make([]byte, len(adj)) // 0 unseen, 1 on the path, 2 done
	var path []int
	var visit func(u int) []int
	visit = func(u int) []int {
		state[u] = 1
		path = append(path, u)
		for _, v := range adj[u] {
			if state[v] == 1 {
				return append(slices.Clone(path[slices.Index(path, v):]), v)
			}
			if state[v] == 0 {
				if c := visit(v); c != nil {
					return c
				}
			}
		}
		state[u], path = 2, path[:len(path)-1]
		return nil
	}
	for u := range adj {
		if state[u] == 0 {
			if c := visit(u); c != nil {
				return c
			}
		}
	}
	return nil
}

// Recorder wraps a tm.System and records a run's history: a node per
// committed transaction and per non-transactional access made through
// its Execs, each placed in the coherence order by the mem-write events
// it observes. The engine serializes processors: no locking is needed.
type Recorder struct {
	inner tm.System
	m     *machine.Machine
	nodes []Node

	// Every store in memory order; the indices of those that place a
	// node's write; per processor, the indices since its last tx-attempt.
	stores []Access
	co     []int
	mine   [][]int
}

// NewRecorder wraps sys, which runs on m, and subscribes to m's stores.
// Call it before m.Run.
func NewRecorder(m *machine.Machine, sys tm.System) *Recorder {
	r := &Recorder{inner: sys, m: m, mine: make([][]int, len(m.Procs()))}
	m.Observe(machine.KindSet(machine.TraceMemWrite, machine.TraceTxAttempt), r)
	return r
}

// Event implements machine.Observer.
func (r *Recorder) Event(e machine.TraceEvent) {
	if e.Kind == machine.TraceTxAttempt {
		r.mine[e.Proc] = r.mine[e.Proc][:0]
		return
	}
	r.mine[e.Proc] = append(r.mine[e.Proc], len(r.stores))
	r.stores = append(r.stores, Access{e.Addr, e.Arg})
}

// add records nd, placing each of its writes at its processor's last
// store of that value; a write with no such store stays out of Co.
func (r *Recorder) add(nd Node) {
	mine := r.mine[nd.Proc]
	for _, w := range nd.Writes {
		for k := len(mine) - 1; k >= 0; k-- {
			if r.stores[mine[k]] == w {
				r.co = append(r.co, mine[k])
				break
			}
		}
	}
	r.nodes = append(r.nodes, nd)
}

// History returns the run's history so far, reading the final state
// from the machine's memory now.
func (r *Recorder) History() History {
	h := History{Nodes: r.nodes}
	slices.Sort(r.co)
	for _, i := range r.co {
		a := r.stores[i]
		if !slices.ContainsFunc(h.Final, func(f Access) bool { return f.Addr == a.Addr }) {
			h.Final = append(h.Final, Access{a.Addr, r.m.Mem.Read64(a.Addr)})
		}
		h.Co = append(h.Co, a)
	}
	return h
}

// Exec returns p's recording Exec.
func (r *Recorder) Exec(p *machine.Proc) tm.Exec {
	return &recExec{r: r, inner: r.inner.Exec(p), proc: p.ID()}
}

type recExec struct {
	r     *Recorder
	inner tm.Exec
	proc  int

	// The current attempt's distinct reads and its writes (a write
	// buffer, whose length is a closed nest's savepoint); recorded is set
	// once the committed attempt is.
	reads    []Access
	late     []Access
	writes   mem.WordLog
	recorded bool
}

func (e *recExec) Proc() *machine.Proc { return e.inner.Proc() }

// Load implements tm.Exec: one non-transactional load node.
func (e *recExec) Load(a uint64) uint64 {
	v := e.inner.Load(a)
	e.r.add(Node{Proc: e.proc, Reads: []Access{{a, v}}})
	return v
}

// Store implements tm.Exec: one non-transactional store node.
func (e *recExec) Store(a, v uint64) {
	e.inner.Store(a, v)
	e.r.add(Node{Proc: e.proc, Writes: []Access{{a, v}}})
}

// Atomic implements tm.Exec: each (re-)execution of the body starts a
// fresh observation set, and the committed attempt is recorded when
// Atomic returns, or before its first OnCommit closure runs if that is
// earlier: a closure's non-transactional accesses follow their
// transaction.
func (e *recExec) Atomic(body func(tm.Tx)) {
	e.recorded = false
	e.inner.Atomic(func(tx tm.Tx) {
		e.reads, e.late = e.reads[:0], e.late[:0]
		e.writes.Reset()
		body(recTx{e: e, inner: tx})
	})
	e.record()
}

// record records the committed attempt, once.
func (e *recExec) record() {
	if e.recorded {
		return
	}
	e.recorded = true
	nd := Node{Proc: e.proc, Tx: true, Reads: slices.Clone(e.reads), Late: slices.Clone(e.late)}
	e.writes.Words(func(a, v uint64) { nd.Writes = append(nd.Writes, Access{Addr: a, Val: v}) })
	e.r.add(nd)
}

type recTx struct {
	e     *recExec
	inner tm.Tx
}

// Load records each distinct observation other than the attempt's own
// latest write: a transaction that reads one word twice and sees two
// values records both, which no order explains.
func (t recTx) Load(addr uint64) uint64 {
	v := t.inner.Load(addr)
	e, a := t.e, Access{addr, v}
	switch own, wrote := e.writes.Get(addr); {
	case !wrote && !slices.Contains(e.reads, a):
		e.reads = append(e.reads, a)
	case wrote && own != v && !slices.Contains(e.late, a):
		e.late = append(e.late, a)
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
// observe those values). On commit the nest's writes belong to the
// enclosing nest, which may still abort past them.
func (t recTx) Nested(body func()) bool {
	save := t.e.writes.Len()
	committed := t.inner.Nested(body)
	if !committed {
		t.e.writes.Truncate(save)
	}
	return committed
}
func (t recTx) Retry()   { t.inner.Retry() }
func (t recTx) Syscall() { t.inner.Syscall() }

// OnCommit records the committed attempt before f runs.
func (t recTx) OnCommit(f func()) {
	t.inner.OnCommit(func() {
		t.e.record()
		f()
	})
}

// EventLog is the recording machine.Observer tests subscribe
// (m.Observe(kinds, log), or through harness.Job.Observe): append-only,
// every event kept in the order the machine emitted it.
type EventLog struct{ Events []machine.TraceEvent }

// Event implements machine.Observer.
func (l *EventLog) Event(e machine.TraceEvent) { l.Events = append(l.Events, e) }
