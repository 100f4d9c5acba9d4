//go:build go1.23

// Package sim provides a deterministic, execution-driven multiprocessor
// simulation engine, the foundation of the paper's §5.1 simulation
// methodology.
//
// Each simulated processor's workload is a coroutine (iter.Pull) and one
// token passes between them, so exactly one runs at any instant, and the
// engine always resumes the runnable processor with the smallest local
// clock (ties broken by processor ID). Memory operations by the layers
// above are therefore atomic at their timestamp, interleavings are
// bit-reproducible for a given configuration, and no locking is needed
// anywhere in the simulated machine.
//
// Time is measured in cycles. Workload code advances its processor's clock
// with Proc.Elapse, which is also the engine's only scheduling point: a
// processor that never elapses time never yields. All layers above charge
// every modeled action (cache hits, coherence transfers, instruction
// overhead) through Elapse.
//
// # Scheduling hot path
//
// The default scheduler is a run-ahead fast path (DESIGN.md §12). The
// engine keeps every ready, not-currently-executing processor in an
// min-heap ordered by (clock, id); the heap minimum is the
// "horizon" — the earliest instant at which any other processor could be
// entitled to run. The executing processor compares its clock against the
// horizon on every Elapse and keeps executing inline, without a switch,
// for as long as it remains the strict (clock, id) minimum. Only when its
// clock crosses the horizon does it hand off: it takes the horizon's
// place in the heap, counts the step, checks the budget and, still inside
// Elapse, passes the token through the iter.Pull slot the horizon's
// goroutine is parked in. A handoff costs one sift and one coroutine
// switch, which does not go through the Go scheduler (DESIGN.md §50).
// park, next and switchTo serve the rest: Block, the reference scheduler
// and Run's caller, which only starts the run and takes the token back
// at its end, to unwind the unfinished processors and raise the failure,
// if any, that was stored where it was found (DESIGN.md §36).
// The schedule this produces is exactly the one the naive
// pick-the-global-minimum-every-Elapse scheduler produces; the retained
// reference implementation (Config.Reference) runs on the same path,
// parking on every Elapse and picking by linear scan (a processor that
// picks itself does not switch). It is the executable specification, and
// differential tests pin the two to identical step sequences.
//
// The go1.23 build constraint above is for iter.Pull; go.mod keeps the
// language version the benchmark module requires and names the toolchain.
package sim

import (
	"fmt"
	"iter"
	"runtime"
	"strings"
)

// State describes what a processor is currently doing, from the engine's
// point of view.
type State uint8

const (
	// Ready means the processor can be scheduled.
	Ready State = iota
	// Blocked means the processor is descheduled until another processor
	// wakes it (used for transactional waiting).
	Blocked
	// Done means the processor's workload function returned.
	Done
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Config holds engine-wide settings. The configuration fully determines
// the schedule: two runs with equal Config and workloads produce
// bit-identical step sequences whichever scheduler (run-ahead or
// Reference) executes them.
type Config struct {
	// Procs is the number of simulated processors.
	Procs int
	// Quantum is the scheduling-timer period in cycles. Every time a
	// processor's clock crosses a multiple of Quantum, its interrupt hook
	// fires (modeling a timer interrupt). Zero disables timer interrupts.
	Quantum uint64
	// MaxSteps bounds the total number of scheduling steps before the
	// engine panics with a "budget" Halt (livelock?). Zero selects a large
	// default.
	MaxSteps uint64
	// Reference selects the retained reference scheduler: every Elapse
	// parks, and the parking processor re-picks the minimum (clock, id)
	// processor by linear scan. It is the executable specification of the
	// scheduling order — slow but obviously correct — kept for
	// differential testing of the run-ahead fast path. Simulated results
	// are bit-identical between the two.
	Reference bool
}

const defaultMaxSteps = 2_000_000_000

// Engine owns the simulated processors and the global clock ordering.
type Engine struct {
	cfg   Config
	procs []*Proc
	steps uint64

	// ready holds every Ready processor that is not currently executing,
	// ordered by (clock, id); ready[0] is the run-ahead horizon. Entries
	// never change their key while in the heap (only the executing
	// processor advances its own clock, and Wake bumps a sleeper's clock
	// before pushing it), so the heap needs push and pop but never a
	// decrease-key. The reference scheduler leaves it empty.
	ready []readyEntry

	// caller stands for Run's caller's goroutine; cur holds the token. At
	// the end Run sets stopping, then raises failure or goexit's Goexit.
	caller      Proc
	cur, goexit *Proc
	stopping    bool
	failure     any
}

// New creates an engine with cfg.Procs processors, all at cycle 0. The
// engine holds no hidden state beyond cfg: constructing two engines from
// the same Config yields identical (deterministic) schedules.
func New(cfg Config) *Engine {
	e := new(Engine)
	e.Reset(cfg)
	return e
}

// Reset makes e the engine New(cfg) builds, keeping its processor slab
// and ready heap, which grow to the largest processor count asked for.
// Every processor starts over at cycle 0 with no interrupt hook or note;
// the *Proc values of the last use must not be kept. Call it between
// runs (a machine arena does, from cell to cell).
func (e *Engine) Reset(cfg Config) {
	if cfg.Procs <= 0 {
		panic("sim: Config.Procs must be positive")
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = defaultMaxSteps
	}
	procs, ready := e.procs, e.ready[:0]
	if cfg.Procs > cap(procs) {
		slab := make([]Proc, cfg.Procs)
		procs, ready = make([]*Proc, cfg.Procs), make([]readyEntry, 0, cfg.Procs)
		for i := range slab {
			procs[i] = &slab[i]
		}
	}
	*e = Engine{cfg: cfg, procs: procs[:cfg.Procs], ready: ready}
	for i, p := range e.procs {
		*p = Proc{id: i, eng: e, nextQuantum: cfg.Quantum}
	}
	e.caller.eng = e
}

// Proc returns the processor with the given ID. The mapping is fixed
// until the next Reset.
func (e *Engine) Proc(id int) *Proc { return e.procs[id] }

// Halt is what Run panics with when it gives up on a run, Kind "budget" or
// "deadlock", and what Catch makes of any other panic, Kind "panic".
type Halt struct{ Kind, msg string }

func (h *Halt) Error() string { return h.msg }

// Catch runs f, as tm.Catch does a transaction body, and returns nil, the
// *Halt f panicked with, or for any other panic v a Halt{"panic", "panic: v"}.
func Catch(f func()) (h *Halt) {
	defer func() {
		r := recover()
		if h, _ = r.(*Halt); h == nil && r != nil {
			h = &Halt{"panic", fmt.Sprintf("panic: %v", r)}
		}
	}()
	f()
	return nil
}

// Run executes one workload function per processor and returns when every
// workload has returned. Workload i runs on processor i; len(workloads)
// must equal the processor count. Every processor starts Ready at the
// clock it had when Run was called, so an engine can run again once Run
// has returned. Run panics with a *Halt, its text ending in a state dump,
// if all unfinished processors are blocked, which would otherwise
// deadlock, or if the step budget is exhausted, which indicates livelock.
// A workload panic leaves Run with its original value; the first in
// schedule order wins, deterministically, because no other processor is
// resumed after it; a workload's runtime.Goexit ends Run's caller too.
// However Run ends, every other workload is unwound first (its deferred
// calls run), and no processor's coroutine outlives it.
func (e *Engine) Run(workloads []func(*Proc)) {
	if len(workloads) != len(e.procs) {
		panic(fmt.Sprintf("sim: %d workloads for %d processors", len(workloads), len(e.procs)))
	}
	e.ready = e.ready[:0]
	e.stopping, e.failure, e.goexit = false, nil, nil
	for i, p := range e.procs {
		p.state, p.in, p.yieldNext = Ready, p, false
		p.next, _ = iter.Pull(p.coroutine(workloads[i]))
		if !e.cfg.Reference {
			e.heapPush(p)
		}
	}
	e.caller.switchTo(e.next())
	// The token is back: unwind the unfinished, the Goexit last (§36).
	e.stopping = true
	for _, p := range e.procs {
		if p.state != Done {
			e.caller.switchTo(p)
		}
	}
	if p := e.goexit; p != nil {
		e.caller.switchTo(p)
		runtime.Goexit()
	}
	if e.failure != nil {
		panic(e.failure)
	}
}

// next returns the ready processor with the smallest clock (ties broken
// by ID) — the heap minimum or the reference's linear scan — and counts
// the step. It returns &e.caller when every processor is done or it has
// recorded a deadlock or budget Halt.
func (e *Engine) next() *Proc {
	var best *Proc
	if !e.cfg.Reference {
		best = e.heapPop()
	} else {
		for _, p := range e.procs {
			if p.state == Ready && (best == nil || p.now < best.now) {
				best = p
			}
		}
	}
	if best == nil {
		for _, p := range e.procs {
			if p.state != Done {
				e.failure = &Halt{"deadlock", "sim: deadlock — all unfinished processors are blocked\n" + e.dump()}
				break
			}
		}
		return &e.caller
	}
	e.steps++
	if e.steps > e.cfg.MaxSteps {
		e.failure = e.budgetHalt()
		return &e.caller
	}
	return best
}

// budgetHalt is the Halt a run ends with when its step count passes
// MaxSteps: the fast path's, a handoff's or next's count.
func (e *Engine) budgetHalt() *Halt {
	return &Halt{"budget", "sim: step budget exhausted (livelock?)\n" + e.dump()}
}

// Now returns the maximum clock across all processors: the simulated
// duration of the run so far. Call it between runs, or from the
// processor holding the execution token.
func (e *Engine) Now() uint64 {
	var max uint64
	for _, p := range e.procs {
		if p.now > max {
			max = p.now
		}
	}
	return max
}

func (e *Engine) dump() string {
	var b strings.Builder
	for _, p := range e.procs {
		note := p.note
		if p.hasN {
			note = fmt.Sprintf("%s=%d", note, p.noteN)
		}
		fmt.Fprintf(&b, "  proc %d: %s at cycle %d (%s)\n", p.id, p.state, p.now, note)
	}
	return b.String()
}
