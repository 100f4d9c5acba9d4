// Package litmus is the strong-atomicity conformance engine: a small
// litmus-test DSL (named threads of transactional and non-transactional
// reads, writes, and fences over a handful of cache lines), a sequential
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
	"sort"
	"strings"

	"repro/internal/harness"
)

// OpKind is the kind of one DSL operation.
type OpKind uint8

// The operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
	OpFence
)

// Op is one memory operation on a program variable. Every variable
// occupies its own cache line in the executed program, so Var doubles as
// a line index.
type Op struct {
	Kind OpKind
	Var  int
	Val  uint64 // value stored; writes only
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

// Validate rejects malformed programs.
func (p *Program) Validate() error {
	if p.Vars < 1 || p.Vars > 4 {
		return fmt.Errorf("litmus %s: Vars %d out of range [1, 4]", p.Name, p.Vars)
	}
	if len(p.Threads) < 1 || len(p.Threads) > 4 {
		return fmt.Errorf("litmus %s: %d threads out of range [1, 4]", p.Name, len(p.Threads))
	}
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
			for _, op := range st.Ops {
				if op.Kind != OpFence && (op.Var < 0 || op.Var >= p.Vars) {
					return fmt.Errorf("litmus %s: thread %d step %d: var %d out of range", p.Name, ti, si, op.Var)
				}
			}
		}
	}
	return nil
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

// ReadCounts returns the number of read observations per thread.
func (p *Program) ReadCounts() []int {
	counts := make([]int, len(p.Threads))
	for i, th := range p.Threads {
		for _, st := range th.Steps {
			for _, op := range st.Ops {
				if op.Kind == OpRead {
					counts[i]++
				}
			}
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

// lookup resolves an observable name against the state.
func (s State) lookup(name string) (uint64, bool) {
	for i := range s.Mem {
		if VarName(i) == name {
			return s.Mem[i], true
		}
	}
	var t, r int
	if n, err := fmt.Sscanf(name, "t%d:r%d", &t, &r); err == nil && n == 2 {
		if t >= 0 && t < len(s.Regs) && r >= 0 && r < len(s.Regs[t]) {
			return s.Regs[t][r], true
		}
	}
	return 0, false
}

// Matches reports whether the state satisfies every constraint of c.
func (c Cond) Matches(s State) bool {
	for name, want := range c {
		got, ok := s.lookup(name)
		if !ok || got != want {
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

// Class is an atomicity class: the guarantee the engine enforces for a
// system's observed outcomes.
type Class string

// The atomicity classes.
const (
	// ClassStrong: every observed outcome must lie inside the oracle
	// set — transactions atomic, non-transactional operations
	// individually atomic, program order respected (sequential
	// consistency, which the simulated machine provides).
	ClassStrong Class = "strong"
	// ClassSerializable ("serializable-only"): some single atomic order
	// of the committed transactions and the non-transactional
	// operations must explain every observation, but program order
	// across a thread's operations need not be respected by that order.
	// Lazy-versioning systems land here: a non-transactional reader can
	// straddle a commit's write-back, but it never sees data that was
	// not (or will not be) committed.
	ClassSerializable Class = "serializable-only"
	// ClassWeak: only transaction-vs-transaction isolation is
	// guaranteed (committed transactions plus non-transactional writes
	// must be serializable); non-transactional reads may observe
	// uncommitted eager state.
	ClassWeak Class = "weak"
)

// ClassOf assigns each system its atomicity class. Systems not listed
// (a future addition iterated via harness.AllSystems) default to
// ClassWeak — the weakest sound requirement — and still get a verdict
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
func ClassOf(system harness.SystemKind) Class {
	switch system {
	case harness.Sequential, harness.UnboundedHTM, harness.UFOHybrid, harness.PhTM, harness.USTMUFO:
		return ClassStrong
	case harness.TL2, harness.HybridNOrec:
		return ClassSerializable
	default: // ustm, hytm, global-lock, sle, and anything new
		return ClassWeak
	}
}
