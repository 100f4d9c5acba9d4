//go:build go1.23

// Package sim provides a deterministic, execution-driven multiprocessor
// simulation engine, the foundation of the paper's §5.1 simulation
// methodology.
//
// Each simulated processor runs its workload as a coroutine of the
// goroutine that called Run, so exactly one of them executes at any
// instant, and the engine always resumes the runnable processor with the
// smallest local clock (ties broken by processor ID). Memory operations
// performed by the layers above are therefore atomic at their timestamp,
// interleavings are bit-reproducible for a given configuration, and no
// locking is needed anywhere in the simulated machine.
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
// clock crosses the horizon does it take the slow path: take the
// horizon's place in the heap, name that processor as the next to run
// and suspend. Run's loop is the hub of every handoff: it takes the
// named processor (or, after a Block or a finished workload, pops the
// minimum), counts the step, checks the budget and resumes it, so a
// handoff costs one sift and two coroutine switches (iter.Pull),
// neither of which goes through the Go scheduler. The schedule this
// produces is exactly the one the naive
// pick-the-global-minimum-every-Elapse scheduler produces; the retained
// reference implementation (Config.Reference) runs on the same loop,
// suspending on every Elapse and picking by linear scan. It is the
// executable specification, and differential tests pin the two to
// identical step sequences.
//
// The go1.23 build constraint above is for iter.Pull; go.mod keeps the
// language version the benchmark module requires and names the toolchain.
package sim

import (
	"fmt"
	"iter"
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
	// engine panics with a livelock diagnostic. Zero selects a large
	// default.
	MaxSteps uint64
	// Reference selects the retained reference scheduler: every Elapse
	// suspends, and the run loop re-picks the minimum (clock, id)
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
	// handoff is the minimum an Elapse that crossed the horizon took out
	// of the heap on its way to park: the run loop's next pick.
	handoff *Proc
}

// New creates an engine with cfg.Procs processors, all at cycle 0. The
// engine holds no hidden state beyond cfg: constructing two engines from
// the same Config yields identical (deterministic) schedules.
func New(cfg Config) *Engine {
	if cfg.Procs <= 0 {
		panic("sim: Config.Procs must be positive")
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = defaultMaxSteps
	}
	e := &Engine{
		cfg:   cfg,
		procs: make([]*Proc, cfg.Procs),
		ready: make([]readyEntry, 0, cfg.Procs),
	}
	slab := make([]Proc, cfg.Procs)
	for i := range slab {
		slab[i] = Proc{id: i, eng: e, nextQuantum: cfg.Quantum}
		e.procs[i] = &slab[i]
	}
	return e
}

// Proc returns the processor with the given ID. The mapping is fixed at
// construction.
func (e *Engine) Proc(id int) *Proc { return e.procs[id] }

// Run executes one workload function per processor and returns when every
// workload has returned. Workload i runs on processor i; len(workloads)
// must equal the processor count. Every processor starts Ready at the
// clock it had when Run was called, so an engine can run again once Run
// has returned. Run panics (with a state dump) if all unfinished
// processors are blocked, which would otherwise deadlock, or if the step
// budget is exhausted, which indicates livelock. A workload panic leaves
// Run with its original value; the first in schedule order wins,
// deterministically, because no other processor is resumed after it.
// However Run ends, no processor's coroutine outlives it.
func (e *Engine) Run(workloads []func(*Proc)) {
	if len(workloads) != len(e.procs) {
		panic(fmt.Sprintf("sim: %d workloads for %d processors", len(workloads), len(e.procs)))
	}
	e.ready, e.handoff = e.ready[:0], nil
	for i, p := range e.procs {
		p.state, p.unwinding = Ready, false
		p.resume, p.stop = iter.Pull(p.coroutine(workloads[i]))
		if !e.cfg.Reference {
			e.heapPush(p)
		}
	}
	// On deadlock, budget exhaustion or a workload panic the other
	// processors are still suspended: stopping them unwinds each workload
	// from its park. Stopping a finished coroutine is a no-op. Dropping
	// the coroutine's functions releases the workload they captured.
	defer func() {
		for _, p := range e.procs {
			p.stop()
			p.resume, p.stop, p.suspend = nil, nil, nil
		}
	}()
	for p := e.next(); p != nil; p = e.next() {
		e.steps++
		if e.steps > e.cfg.MaxSteps {
			panic("sim: step budget exhausted (livelock?)\n" + e.dump())
		}
		if _, suspended := p.resume(); !suspended {
			p.state = Done
		}
	}
}

// next returns the ready processor with the smallest clock (ties broken
// by ID) — the processor Elapse handed off or else the heap minimum, or
// under the reference scheduler the result of a linear scan — nil if
// every processor is done, and panics on deadlock.
func (e *Engine) next() *Proc {
	if best := e.handoff; best != nil {
		e.handoff = nil
		return best
	}
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
				panic("sim: deadlock — all unfinished processors are blocked\n" + e.dump())
			}
		}
	}
	return best
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
		fmt.Fprintf(&b, "  proc %d: %s at cycle %d (%s)\n", p.id, p.state, p.now, p.note)
	}
	return b.String()
}
