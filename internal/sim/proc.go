package sim

// Proc is one simulated processor. All methods must be called from the
// workload the engine started for this processor (except Wake, which is
// called by whichever processor is currently running). One processor
// holds the execution token at a time, so that discipline alone makes
// every method race-free.
type Proc struct {
	id    int
	eng   *Engine
	now   uint64
	state State
	note  string // diagnostic label shown in deadlock/livelock dumps
	noteN uint64 // the label's integer, shown as label=n when hasN
	hasN  bool

	// This workload's iter.Pull slot: its next, the yield the workload
	// received, which one a switch into it calls next, and in, the slot
	// this goroutine last parked in (see switchTo).
	next      func() (struct{}, bool)
	yield     func(struct{}) bool
	yieldNext bool
	in        *Proc

	nextQuantum uint64 // next timer-interrupt time; 0 when Config.Quantum is 0
	interrupt   func()
	fastSkips   uint32
}

// ID returns the processor number.
func (p *Proc) ID() int { return p.id }

// Now returns the processor's local clock in cycles. Only this
// processor's Elapse (and a Wake while it is blocked) advances it.
func (p *Proc) Now() uint64 { return p.now }

// SetNote attaches a diagnostic label that appears in engine state
// dumps. The note is proc-local; it never influences the schedule, and
// setting it allocates nothing: only a dump formats it.
func (p *Proc) SetNote(label string) { p.note, p.hasN = label, false }

// SetNoteN is SetNote with one integer, which a dump shows as label=n.
func (p *Proc) SetNoteN(label string, n uint64) { p.note, p.noteN, p.hasN = label, n, true }

// OnInterrupt sets the function that runs (in the workload, during
// Elapse) every time this processor's clock crosses a scheduling-quantum
// boundary, replacing any earlier one. The TM layers use this to model
// timer-interrupt aborts.
func (p *Proc) OnInterrupt(fn func()) { p.interrupt = fn }

// Elapse advances the local clock by cycles and yields to the engine so a
// processor with a smaller clock can run. It fires the timer-interrupt
// hook for every quantum boundary crossed. Elapse is the only scheduling
// point: the engine's deterministic (clock, id) order is defined over
// the steps Elapse creates, identically under both schedulers.
func (p *Proc) Elapse(cycles uint64) {
	p.now += cycles
	e := p.eng
	if e.cfg.Quantum > 0 {
		for p.now >= p.nextQuantum {
			p.nextQuantum += e.cfg.Quantum
			if p.interrupt != nil {
				p.interrupt()
			}
		}
	}
	if !e.cfg.Reference {
		// Run-ahead fast path: while this processor stays strictly before
		// the horizon in (clock, id) order it is still the engine's unique
		// next pick, so it keeps executing inline without a switch. (The
		// horizon can only have moved earlier through this processor's own
		// actions — Wake, the interrupt hook — all of which happened above
		// or before this call, so the comparison is always current.)
		me := readyEntry{p.now, p}
		if len(e.ready) == 0 || !e.ready[0].before(me) {
			// Coarse inline step accounting keeps the livelock watchdog
			// counting while a lone runnable processor spins below the
			// horizon.
			p.fastSkips++
			if p.fastSkips&1023 == 0 {
				e.steps++
				if e.steps > e.cfg.MaxSteps {
					panic(e.budgetHalt())
				}
			}
			return
		}
		// The horizon is the next to run and p takes its place in the
		// heap with one sift. Then p does what park does, inline: it
		// counts the step and makes switchTo's first switch, into the slot
		// the horizon's goroutine is parked in; while the run is being
		// torn down it does neither and re-raises.
		x := e.replaceTop(me)
		if !e.stopping {
			if e.steps++; e.steps > e.cfg.MaxSteps {
				e.failure, x = e.budgetHalt(), &e.caller
			}
			e.cur = x
			s := x.in
			p.in = s
			if s.yieldNext = !s.yieldNext; s.yieldNext {
				s.next()
			} else {
				s.yield(struct{}{})
			}
			if e.cur != p { // the slot's goroutine returned: pass it on
				p.switchTo(e.cur)
			}
		}
		if e.stopping {
			panic("sim: run stopped")
		}
		return
	}
	p.park()
}

// Block deschedules the processor until another processor calls Wake. The
// caller resumes inside Block once woken; no cycles elapse while blocked
// (the waker's Wake advances the sleeper's clock to the wake time).
func (p *Proc) Block() {
	p.state = Blocked
	p.park()
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

// park is Block's and the reference scheduler's way out: it passes the
// execution token to the processor next picks and returns when it is
// back. If the run is being torn down instead, it unwinds the workload
// with a panic that coroutine absorbs; a deferred call that reaches park
// again gets the same answer. A crossing Elapse does the same inline.
func (p *Proc) park() {
	if !p.eng.stopping {
		p.switchTo(p.eng.next())
	}
	if p.eng.stopping {
		panic("sim: run stopped")
	}
}

// switchTo passes the token from p's running goroutine to x's: calling a
// slot's next or yield parks the caller there and resumes the goroutine
// parked in it, whoever's. It returns when the token is back. If the
// goroutine of the slot p parked in returns, p passes the token on.
// Elapse repeats the loop's first switch inline: switchTo cannot be
// inlined, and calling it from there gives back a third to a half of
// what the inline switch saves (DESIGN.md §50).
func (p *Proc) switchTo(x *Proc) {
	e := p.eng
	for e.cur = x; x != p; x = e.cur {
		s := x.in
		p.in = s
		if s.yieldNext = !s.yieldNext; s.yieldNext {
			s.next()
		} else {
			s.yield(struct{}{})
		}
	}
}

// coroutine wraps a workload as iter.Pull's body. A first panic is kept
// for Run to raise, one raised while unwinding is dropped, a Goexit waits
// until every other workload has unwound; then it picks who runs next.
func (p *Proc) coroutine(workload func(*Proc)) func(func(struct{}) bool) {
	return func(yield func(struct{}) bool) {
		e, returned := p.eng, false
		p.yield = yield
		defer func() {
			p.state = Done
			if r := recover(); r != nil && !e.stopping {
				e.failure = r
			} else if r == nil && !returned {
				e.goexit = p
				p.switchTo(&e.caller)
			}
			p.next, p.yield, e.cur = nil, nil, &e.caller
			if !e.stopping && e.failure == nil {
				e.cur = e.next()
			}
		}()
		if !e.stopping {
			workload(p)
		}
		returned = true
	}
}
