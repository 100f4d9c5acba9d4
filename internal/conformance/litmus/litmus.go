// Package litmus is the strong-atomicity conformance engine: a small
// litmus-test DSL (named threads of transactional and non-transactional
// reads, writes, and fences over a handful of cache lines, plus an op for
// each other tm.Tx call a transaction can make), a sequential
// oracle that enumerates the outcomes a strongly-atomic serializable
// system may produce, and a deterministic executor that replays every
// program across an enumerated interleaving space on each TM system and
// classifies the observed outcome sets per atomicity class.
//
// The paper's core semantic claim is that UFO-based systems give strong
// atomicity — non-transactional accesses are ordered against
// transactions — while TL2/SLE-style systems are only weakly atomic.
// This package pins that split down as machine-checked verdict tables,
// in the litmus-test style of Chong, Sorensen & Wickerson (PAPERS.md).
//
// Paper: §2 (strong-atomicity semantics), §3.1 (the UFO mechanism that
// provides them), §4.2 (the USTM extension under test).
package litmus

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/harness"
	"repro/internal/tmtest"
)

// OpKind is the kind of one DSL operation.
type OpKind uint8

// The operation kinds. Read, write and fence may stand alone as a
// non-transactional step; the rest are tm.Tx calls, so they occur only
// inside a transaction. Each takes one schedule slot.
const (
	OpRead OpKind = iota
	OpWrite
	OpFence
	// OpSyscall calls Syscall: a no-op to the oracle, the software path
	// on a hybrid.
	OpSyscall
	// OpAbort aborts the enclosing transaction the first time its Atomic
	// call reaches it. Only the committed attempt is visible, so the
	// oracle ignores it.
	OpAbort
	// OpNest opens a closed nest, one level deep, that the next OpUnnest
	// closes. An OpUnnest with nonzero Val aborts the nest the first time
	// its Atomic call runs it: the nest's reads stay, and its writes are
	// dropped (partial rollback) or kept (a flattening system, whose retry
	// commits the nest), so the oracle allows both.
	OpNest
	OpUnnest
	// OpGuard reads Var into a register and calls Retry if it read 0: the
	// oracle runs the transaction only in states where Var is nonzero.
	OpGuard
	// OpEffect registers an OnCommit that stores Val to Var
	// non-transactionally: to the oracle, the thread's next unit after
	// the transaction.
	OpEffect
)

// Op is one operation. Every variable occupies its own cache line in the
// executed program, so Var doubles as a line index.
type Op struct {
	Kind OpKind
	Var  int
	Val  uint64 // value a write or an effect stores; nonzero on an aborting OpUnnest
}

// R reads variable v.
func R(v int) Op { return Op{Kind: OpRead, Var: v} }

// W writes val to variable v.
func W(v int, val uint64) Op { return Op{Kind: OpWrite, Var: v, Val: val} }

// F is a fence: a schedulable no-op. The simulated machine is
// sequentially consistent, so fences never change outcomes; they exist
// so classic weak-memory shapes can be written down verbatim and shown
// to collapse to their SC outcome sets.
func F() Op { return Op{Kind: OpFence} }

// Step is one schedulable unit of a thread: a transaction (Tx true,
// Ops its body) or a single non-transactional operation.
type Step struct {
	Tx  bool
	Ops []Op
}

// Atomic wraps ops into one transactional step.
func Atomic(ops ...Op) Step { return Step{Tx: true, Ops: ops} }

// NT wraps one non-transactional operation into a step.
func NT(op Op) Step { return Step{Ops: []Op{op}} }

// Thread is one named thread: a program-ordered sequence of steps.
type Thread struct {
	Name  string
	Steps []Step
}

// T builds a thread.
func T(name string, steps ...Step) Thread { return Thread{Name: name, Steps: steps} }

// Cond is a partial final-state predicate: every named observable (a
// variable name like "x", or a read register like "t1:r0") must hold the
// given value. An Expect lists Conds; a state matching any of them is a
// forbidden outcome.
type Cond map[string]uint64

// Expect is a program's expected-outcomes spec. Allowed outcomes are
// implicit — the oracle enumerates them — so the spec names the
// interesting *forbidden* states (outcomes outside the oracle set that a
// weakly-atomic system can exhibit) and the systems expected to actually
// witness one in this simulation.
type Expect struct {
	// Forbidden lists partial states that no strongly-atomic
	// serializable execution can produce. Each entry must lie outside
	// the oracle set (the curated-suite tests verify this).
	Forbidden []Cond
	// Witnesses names the systems expected to observe at least one
	// Forbidden state somewhere in the enumerated schedule space.
	// Weakly-atomic systems absent from this list have their anomaly
	// documented as unreachable in this simulation (e.g. SLE's
	// fallback path needs more consecutive aborts than a small litmus
	// program can provoke).
	Witnesses []harness.SystemKind
}

// Program is one litmus test.
type Program struct {
	Name    string
	Doc     string
	Vars    int // number of variables (one cache line each), 1..4
	Threads []Thread
	Expect  Expect
}

// Validate rejects malformed programs. Beyond shape and range it keeps
// every program live: a nest is one level deep and closed inside its
// transaction, abort, guard and effect stand outside nests, and the one
// guard a program may hold waits on a variable a lower-numbered thread
// writes in a transaction outside any nest — so running the threads in
// index order, as the sequential system does, never waits. And it keeps
// reads-from readable off values: no store (a write or an effect)
// stores 0, the initial value, or a value another store stores to the
// same variable.
func (p *Program) Validate() error {
	if p.Vars < 1 || p.Vars > 4 {
		return fmt.Errorf("litmus %s: Vars %d out of range [1, 4]", p.Name, p.Vars)
	}
	if len(p.Threads) < 1 || len(p.Threads) > 4 {
		return fmt.Errorf("litmus %s: %d threads out of range [1, 4]", p.Name, len(p.Threads))
	}
	var written uint64 // txWrites of the threads before this one
	guards := 0
	stored := map[Op]bool{} // each store's variable and value
	for ti, th := range p.Threads {
		if len(th.Steps) == 0 {
			return fmt.Errorf("litmus %s: thread %d has no steps", p.Name, ti)
		}
		for si, st := range th.Steps {
			if len(st.Ops) == 0 {
				return fmt.Errorf("litmus %s: thread %d step %d has no ops", p.Name, ti, si)
			}
			if !st.Tx && len(st.Ops) != 1 {
				return fmt.Errorf("litmus %s: thread %d step %d: non-tx steps hold exactly one op", p.Name, ti, si)
			}
			nest := false
			for _, op := range st.Ops {
				if op.Var < 0 || op.Var >= p.Vars {
					return fmt.Errorf("litmus %s: thread %d step %d: var %d out of range", p.Name, ti, si, op.Var)
				}
				if !fits(op, st.Tx, nest, guards == 0 && written&(1<<op.Var) != 0) {
					return fmt.Errorf("litmus %s: thread %d step %d: op kind %d cannot stand here", p.Name, ti, si, op.Kind)
				}
				if key := (Op{Var: op.Var, Val: op.Val}); op.Kind == OpWrite || op.Kind == OpEffect {
					if op.Val == 0 || stored[key] {
						return fmt.Errorf("litmus %s: thread %d step %d: a store of %d to %s does not name its writer", p.Name, ti, si, op.Val, VarName(op.Var))
					}
					stored[key] = true
				}
				nest = (nest || op.Kind == OpNest) && op.Kind != OpUnnest
				if op.Kind == OpGuard {
					guards++
				}
			}
			if nest {
				return fmt.Errorf("litmus %s: thread %d step %d: nest left open", p.Name, ti, si)
			}
		}
		written |= txWrites(th.Steps)
	}
	return nil
}

// fits reports whether op may stand inside a transaction or not (tx),
// inside a nest or not, and, for a guard, whether the program may still
// take one on its variable.
func fits(op Op, tx, nest, guardOK bool) bool {
	switch op.Kind {
	case OpRead, OpWrite, OpFence:
		return true
	case OpSyscall:
		return tx
	case OpUnnest:
		return nest
	case OpGuard:
		return tx && !nest && guardOK
	case OpNest, OpAbort, OpEffect:
		return tx && !nest
	}
	return false
}

// txWrites is the set of variables steps write in a transaction outside
// any nest: the writes that commit whatever a nest does.
func txWrites(steps []Step) uint64 {
	var vars uint64
	for _, st := range steps {
		nest := false
		for _, op := range st.Ops {
			nest = (nest || op.Kind == OpNest) && op.Kind != OpUnnest
			if st.Tx && !nest && op.Kind == OpWrite {
				vars |= 1 << op.Var
			}
		}
	}
	return vars
}

// OpCounts returns the number of schedulable operations per thread
// (every op, including each op inside a transaction, occupies one
// schedule slot — that is what lets non-transactional operations land
// between a transaction's operations).
func (p *Program) OpCounts() []int {
	counts := make([]int, len(p.Threads))
	for i, th := range p.Threads {
		for _, st := range th.Steps {
			counts[i] += len(st.Ops)
		}
	}
	return counts
}

// VarName names variable i ("x", "y", "z", "w").
func VarName(i int) string {
	const names = "xyzw"
	if i >= 0 && i < len(names) {
		return names[i : i+1]
	}
	return fmt.Sprintf("v%d", i)
}

// State is one final outcome: the final memory value of every variable
// plus every read observation, per thread in program order.
type State struct {
	Mem  []uint64
	Regs [][]uint64
}

// Key renders the canonical form, e.g. "x=1 y=0 t0:r0=1 t1:r0=0".
// Memory values come first, then registers in (thread, read) order.
func (s State) Key() string {
	var b strings.Builder
	for i, v := range s.Mem {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", VarName(i), v)
	}
	for t, rs := range s.Regs {
		for r, v := range rs {
			fmt.Fprintf(&b, " t%d:r%d=%d", t, r, v)
		}
	}
	return b.String()
}

// Matches reports whether the state satisfies every constraint of c. A
// state's key names each observable once, as "name=value", so c matches
// exactly when each pair of c's key is one of the state key's.
func (c Cond) Matches(s State) bool {
	pairs := strings.Fields(s.Key())
	for _, want := range strings.Fields(c.Key()) {
		if !slices.Contains(pairs, want) {
			return false
		}
	}
	return true
}

// Key renders a Cond canonically (sorted by observable name).
func (c Cond) Key() string {
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, c[n])
	}
	return strings.Join(parts, " ")
}

// OutcomeSet is a deduplicated set of final states, kept by canonical
// key.
type OutcomeSet struct {
	keys map[string]bool
}

// NewOutcomeSet returns an empty set.
func NewOutcomeSet() *OutcomeSet {
	return &OutcomeSet{keys: make(map[string]bool)}
}

// Add inserts a state.
func (o *OutcomeSet) Add(s State) { o.keys[s.Key()] = true }

// Has reports membership by canonical key.
func (o *OutcomeSet) Has(key string) bool { return o.keys[key] }

// Keys returns the sorted canonical keys.
func (o *OutcomeSet) Keys() []string {
	keys := make([]string, 0, len(o.keys))
	for k := range o.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ClassOf assigns each system its atomicity class. Systems not listed
// (a future addition iterated via harness.AllSystems) default to
// tmtest.Weak — the weakest sound requirement — and still get a verdict
// table, so a new system cannot merge unclassified and unchecked.
//
// global-lock and sle sit in the weak class because both can run a
// critical section's stores in place while holding a real lock
// (global-lock always, sle on its acquisition fallback), where a
// concurrent non-transactional reader observes intermediate state. tl2
// and hybrid-norec are serializable-only, not weak: their lazy redo
// logs never expose uncommitted data, but their commit-time write-backs
// can be straddled by a non-transactional reader (hybrid-norec's
// seqlock only protects transactional peers — hardware transactions
// abort on the lock-acquisition write, software transactions
// revalidate — not uninstrumented code).
func ClassOf(system harness.SystemKind) tmtest.Class {
	switch system {
	case harness.Sequential, harness.UnboundedHTM, harness.UFOHybrid, harness.PhTM, harness.USTMUFO:
		return tmtest.Strong
	case harness.TL2, harness.HybridNOrec:
		return tmtest.Serializable
	default: // ustm, hytm, global-lock, sle, and anything new
		return tmtest.Weak
	}
}
