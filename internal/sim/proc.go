package sim

import "fmt"

// Proc is one simulated processor. All methods must be called from the
// workload goroutine that the engine started for this processor (except
// Wake, which is called by whichever processor is currently running).
// One processor holds the execution token at a time, so that discipline
// alone makes every method race-free.
type Proc struct {
	id    int
	eng   *Engine
	now   uint64
	state State
	note  string // diagnostic label shown in deadlock/livelock dumps

	heapIdx  int // position in the engine's ready heap, -1 when absent
	panicVal any // captured workload panic; written only by this proc's goroutine

	grant chan struct{}
	yield chan struct{} // reference scheduler only

	quantum      uint64
	nextQuantum  uint64
	interruptFns []func()
	fastSkips    uint32
}

// ID returns the processor number.
func (p *Proc) ID() int { return p.id }

// Now returns the processor's local clock in cycles. Only this
// processor's Elapse (and a Wake while it is blocked) advances it.
func (p *Proc) Now() uint64 { return p.now }

// SetNote attaches a diagnostic label that appears in engine state
// dumps. The note is proc-local; it never influences the schedule.
func (p *Proc) SetNote(format string, args ...any) {
	p.note = fmt.Sprintf(format, args...)
}

// OnInterrupt registers fn to run (on the workload goroutine, during
// Elapse) every time this processor's clock crosses a scheduling-quantum
// boundary. The TM layers use this to model timer-interrupt aborts.
func (p *Proc) OnInterrupt(fn func()) {
	p.interruptFns = append(p.interruptFns, fn)
}

// Elapse advances the local clock by cycles and yields to the engine so a
// processor with a smaller clock can run. It fires timer-interrupt hooks
// for every quantum boundary crossed. Elapse is the only scheduling
// point: the engine's deterministic (clock, id) order is defined over
// the steps Elapse creates, identically under both schedulers.
func (p *Proc) Elapse(cycles uint64) {
	p.now += cycles
	if p.quantum > 0 {
		if p.nextQuantum == 0 {
			p.nextQuantum = p.quantum
		}
		for p.now >= p.nextQuantum {
			p.nextQuantum += p.quantum
			for _, fn := range p.interruptFns {
				fn()
			}
		}
	}
	e := p.eng
	if e.cfg.Reference {
		p.refYield()
		return
	}
	// Run-ahead fast path: while this processor stays strictly before the
	// horizon in (clock, id) order it is still the engine's unique next
	// pick, so it keeps executing inline with zero channel operations.
	// (The horizon can only have moved earlier through this processor's
	// own actions — Wake, interrupt hooks — all of which happened above or
	// on a previous slow path, so the comparison is always current.)
	if h := e.horizon(); h != nil && schedBefore(h, p) {
		p.yieldNext()
		return
	}
	// Coarse inline step accounting keeps the livelock watchdog counting
	// while a lone runnable processor spins below the horizon.
	p.fastSkips++
	if p.fastSkips&1023 == 0 {
		e.steps++
		if e.steps > e.cfg.MaxSteps {
			panic("sim: step budget exhausted (livelock?)\n" + e.dump())
		}
	}
}

// Block deschedules the processor until another processor calls Wake. The
// caller resumes inside Block once woken; no cycles elapse while blocked
// (the waker's Wake advances the sleeper's clock to the wake time).
func (p *Proc) Block() {
	p.state = Blocked
	if p.eng.cfg.Reference {
		p.refYield()
		return
	}
	p.yieldNext()
}

// Wake makes a blocked processor runnable again, advancing its clock to
// the waker's current time (it cannot resume in the past). Waking a
// processor that is not blocked is a no-op, so wakeups compose benignly
// with the sleeper deciding to block. On the fast path the woken
// processor enters the ready heap, which lowers the horizon so the waker
// yields at its next Elapse if the sleeper now precedes it.
func (p *Proc) Wake(target *Proc) {
	if target.state != Blocked {
		return
	}
	target.state = Ready
	if target.now < p.now {
		target.now = p.now
	}
	if !p.eng.cfg.Reference {
		p.eng.heapPush(target)
	}
}

// yieldNext is the scheduling slow path: hand the execution token to the
// next processor in (clock, id) order, or terminate the run. Called when
// the executing processor crosses the horizon, blocks, or finishes.
func (p *Proc) yieldNext() {
	e := p.eng
	e.steps++
	if e.steps > e.cfg.MaxSteps {
		msg := "sim: step budget exhausted (livelock?)\n" + e.dump()
		if p.state == Done {
			// Called from finish's defer: a panic here would escape the
			// goroutine uncaught, so route the diagnostic through Run.
			e.termMsg = msg
			close(e.doneCh)
			return
		}
		panic(msg)
	}
	// Latch the departing state now: the moment the token is handed to
	// next, that processor may Wake this one, writing p.state and p.now
	// concurrently with anything we still read here.
	parked := p.state != Done
	if p.state == Ready {
		e.heapPush(p)
	}
	next := e.heapPop()
	switch {
	case next == p:
		// No other ready processor precedes us after all; keep running.
		return
	case next != nil:
		next.grant <- struct{}{}
	case e.notDone == 0:
		close(e.doneCh) // every workload returned
		return
	default:
		// No runnable processor but unfinished ones remain: deadlock.
		e.termMsg = "sim: deadlock — all unfinished processors are blocked\n" + e.dump()
		close(e.doneCh)
		// fall through to park this (blocked) processor forever
	}
	if parked {
		<-p.grant
	}
}

// finish runs deferred on the workload goroutine. It captures a workload
// panic into the per-processor slot (each goroutine writes only its own,
// so capture is race-free), marks the processor Done, and either
// terminates the run — the first panicking processor in schedule order
// wins, deterministically, because it holds the execution token and no
// other processor resumes afterwards — or hands the token onward.
func (p *Proc) finish() {
	e := p.eng
	if r := recover(); r != nil {
		p.panicVal = r
	}
	p.state = Done
	e.notDone--
	if p.panicVal != nil {
		e.panicked = p.panicVal
		close(e.doneCh)
		return
	}
	p.yieldNext()
}

// refYield is the reference scheduler's unconditional handoff to the
// engine goroutine.
func (p *Proc) refYield() {
	p.yield <- struct{}{}
	<-p.grant
}
