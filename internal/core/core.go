// Package core implements the paper's primary contribution: the UFO
// hybrid transactional memory (§4.3). Transactions first execute
// as zero-instrumentation BTM hardware transactions; transactions that
// hardware cannot complete fail over to the strongly-atomic USTM.
//
// Because USTM protects everything it touches with UFO memory-protection
// bits, hardware transactions detect conflicts with concurrent software
// transactions for free: a conflicting access raises a UFO fault before
// it completes, and software's set_ufo_bits operations (which need
// exclusive coherence permission) kill hardware transactions that already
// hold the line. No software checks are added to the hardware path — the
// paper's pay-per-use principle.
//
// The BTM abort handler (Algorithm 3) classifies every abort into
// fail-to-software (overflow, syscall, I/O, exception, nesting, explicit),
// retry-in-hardware with exponential backoff (interrupt, conflict,
// UFO-kill, UFO-fault, nonT-conflict), or resolve-then-retry (page
// fault). §4.4's contention-management findings are exposed as
// Policy knobs so the Figure 8 sensitivity study can be reproduced.
package core

import (
	"repro/internal/btm"
	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
	"repro/internal/ustm"
)

// Policy collects the hybrid's contention-management knobs (Section 4.4 /
// Figure 8).
type Policy struct {
	// FailoverOnNthConflict, when positive, fails a transaction over to
	// software after that many conflict-family aborts (Figure 8's second
	// bar). Zero — the paper's recommended policy — never fails over on
	// contention.
	FailoverOnNthConflict int
	// StallOnUFOFault retries a faulting hardware access after a stall
	// instead of aborting the hardware transaction (Figure 8's third
	// bar). The access is retried up to UFOFaultStallTries times before
	// the transaction aborts anyway.
	StallOnUFOFault bool
	// UFOFaultStallTries bounds StallOnUFOFault retries (default 16).
	UFOFaultStallTries int
	// BackoffBase is the exponential-backoff unit for hardware retries
	// (cycles). The backoff is BackoffBase << min(aborts, 7), the paper's
	// saturating abort counter. Zero selects cm.DefaultBase (64); the
	// delay schedule itself is pluggable via SetBackoffPolicy.
	BackoffBase uint64
	// UFOFaultStallCycles is the per-try stall under StallOnUFOFault.
	UFOFaultStallCycles uint64
}

// DefaultPolicy is the configuration the paper recommends.
func DefaultPolicy() Policy {
	return Policy{
		FailoverOnNthConflict: 0,
		StallOnUFOFault:       false,
		UFOFaultStallTries:    16,
		BackoffBase:           64,
		UFOFaultStallCycles:   60,
	}
}

// System is the UFO hybrid TM. It implements tm.System.
type System struct {
	m   *machine.Machine
	stm *ustm.STM
	pol Policy

	backoff cm.Spec
	cmgr    *cm.Manager
}

// New builds a hybrid over the machine with the given USTM configuration
// and policy. The USTM must be strongly atomic — the hybrid's correctness
// depends on it — so cfg.StrongAtomicity is forced on.
func New(m *machine.Machine, cfg ustm.Config, pol Policy) *System {
	cfg.StrongAtomicity = true
	// BackoffBase is deliberately not defaulted here: zero means "use the
	// contention-management default" and is resolved at the single
	// validation site, cm.Spec.Policy.
	if pol.UFOFaultStallTries == 0 {
		pol.UFOFaultStallTries = 16
	}
	if pol.UFOFaultStallCycles == 0 {
		pol.UFOFaultStallCycles = 60
	}
	return &System{m: m, stm: ustm.New(m, cfg), pol: pol}
}

// Name implements tm.System.
func (s *System) Name() string { return "ufo-hybrid" }

// Stats implements tm.System. Hardware- and software-side counts share
// one structure (the software side is maintained by the embedded USTM).
func (s *System) Stats() *tm.Stats { return s.stm.Stats() }

// STM exposes the embedded software TM (tests and the retry machinery
// use it).
func (s *System) STM() *ustm.STM { return s.stm }

// SetBackoffPolicy implements cm.Tunable: it selects the contention-
// management policy. Call before the first transaction runs.
func (s *System) SetBackoffPolicy(spec cm.Spec) {
	s.backoff = spec
	s.cmgr = nil
}

// CM implements cm.Instrumented. The manager is built lazily so the
// BackoffBase knob and SetBackoffPolicy both take effect regardless of
// call order, as long as they precede the first transaction.
func (s *System) CM() *cm.Manager {
	if s.cmgr == nil {
		s.cmgr = cm.NewManager(s.backoff, s.pol.BackoffBase)
	}
	return s.cmgr
}

// Exec implements tm.System.
func (s *System) Exec(p *machine.Proc) tm.Exec {
	return &exec{
		s: s,
		u: btm.New(p),
		t: s.stm.Thread(p),
	}
}

// exec is the per-thread hybrid execution context.
type exec struct {
	s *System
	u *btm.Unit
	t *ustm.Thread

	// toWake accumulates retrying software transactions whose lines this
	// hardware transaction touched under masked faults; they are woken
	// after the hardware commit makes the update visible (Section 6).
	toWake []*ustm.Thread
	// onCommit accumulates deferred side effects registered by the
	// current hardware attempt (software attempts defer through USTM).
	onCommit []func()
	// ufoFaultTries counts consecutive stall-retries for one access under
	// the StallOnUFOFault policy.
	ufoFaultTries int
}

var _ tm.Exec = (*exec)(nil)

// Proc implements tm.Exec.
func (e *exec) Proc() *machine.Proc { return e.u.Proc() }

// Load implements tm.Exec's non-transactional access with USTM's strong
// atomicity fault handling.
func (e *exec) Load(addr uint64) uint64 { return ustm.NTLoad(e.s.stm, e.Proc(), addr) }

// Store implements tm.Exec.
func (e *exec) Store(addr, val uint64) { ustm.NTStore(e.s.stm, e.Proc(), addr, val) }

// Atomic implements tm.Exec: the hybrid transaction structure of
// Figure 4 — try BTM, run the abort handler, retry in hardware or fail
// over to USTM.
func (e *exec) Atomic(body func(tm.Tx)) {
	age := e.s.m.NextAge()
	stats := e.s.Stats()
	cmgr := e.s.CM()
	p := e.Proc()
	p.TxLifeBegin()
	conflictAborts := 0
	totalAborts := 0
	for {
		p.TxLifeAttempt(machine.PathHTM)
		reason, committed := e.tryHW(age, body)
		if committed {
			stats.HWCommits++
			p.TxLifeCommit(machine.PathHTM)
			cmgr.TxDone(age)
			e.wakeRetriers()
			e.runDeferred()
			return
		}
		p.TxLifeAbort(machine.PathHTM, reason)
		// The BTM abort handler (Algorithm 3).
		switch reason {
		case machine.AbortOverflow, machine.AbortSyscall, machine.AbortIO,
			machine.AbortException, machine.AbortNesting, machine.AbortExplicit:
			// Conditions hardware will never satisfy: fail over now.
			e.failover(age, body)
			cmgr.TxDone(age)
			return
		case machine.AbortPageFault:
			// Resolve the fault (touch the page non-transactionally) and
			// retry in hardware without counting an abort.
			cmgr.PageFaultStall(e.Proc())
			continue
		case machine.AbortConflict, machine.AbortUFOKill,
			machine.AbortNonTConflict, machine.AbortUFOFault:
			conflictAborts++
			if e.s.pol.FailoverOnNthConflict > 0 && conflictAborts >= e.s.pol.FailoverOnNthConflict {
				e.failover(age, body)
				cmgr.TxDone(age)
				return
			}
		case machine.AbortInterrupt:
			// Likely transient: retry after the backoff.
		default:
			panic("core: unclassified abort reason " + reason.String())
		}
		totalAborts++ // the policy clamps the shift (saturating counter)
		stats.HWRetries++
		if cmgr.OnAbort(e.Proc(), age, totalAborts, reason) != cm.EscalateNone {
			// The policy declared this transaction starving: stop burning
			// hardware attempts and serialize it through the software path.
			e.failover(age, body)
			cmgr.TxDone(age)
			return
		}
	}
}

// failover runs the transaction in the STM with the age it was assigned
// at its first hardware attempt — which is why software transactions are
// almost always older than the hardware transactions they meet (§4.4).
func (e *exec) failover(age uint64, body func(tm.Tx)) {
	e.s.Stats().Failovers++
	e.toWake = e.toWake[:0]
	ustm.RunTx(e.t, age, body)
}

// tryHW attempts the transaction in BTM once.
func (e *exec) tryHW(age uint64, body func(tm.Tx)) (machine.AbortReason, bool) {
	e.toWake = e.toWake[:0]
	e.onCommit = e.onCommit[:0]
	if !e.u.Begin(age) {
		return machine.AbortNesting, false
	}
	reason, retryReq, aborted := tm.Catch(func() { body(hwTx{e}) })
	if aborted {
		if retryReq {
			// retry (transactional waiting) inside a hardware transaction
			// compiles to an explicit abort so the transaction fails over
			// to software, where waiting is supported (Section 6).
			reason = machine.AbortExplicit
		}
		return reason, false
	}
	out := e.u.End()
	if out.Kind == machine.HWAborted {
		return out.Reason, false
	}
	return machine.AbortNone, true
}

// runDeferred executes side effects registered by the committed hardware
// attempt.
func (e *exec) runDeferred() {
	for _, f := range e.onCommit {
		f()
	}
	e.onCommit = e.onCommit[:0]
}

// wakeRetriers delivers post-commit wake-ups owed to retrying software
// transactions.
func (e *exec) wakeRetriers() {
	if len(e.toWake) == 0 {
		return
	}
	e.s.stm.WakeRetriers(e.Proc(), e.toWake)
	e.toWake = e.toWake[:0]
}

// hwTx is the zero-instrumentation hardware transaction handle: loads and
// stores go straight to the transactional cache path with no otable
// lookups — the hybrid's whole point.
type hwTx struct{ e *exec }

var _ tm.Tx = hwTx{}

func (h hwTx) Load(addr uint64) uint64 {
	e := h.e
	for {
		v, out := e.u.Load(addr)
		switch out.Kind {
		case machine.OK:
			e.ufoFaultTries = 0
			return v
		case machine.HWAborted:
			tm.Unwind(out.Reason)
		case machine.UFOFault:
			if e.faultAllowsMaskedAccess(addr) {
				v, out = e.u.LoadMasked(addr)
				mustCompleteMasked(out)
				return v
			}
			// Stalled; loop retries the access.
		}
	}
}

func (h hwTx) Store(addr, val uint64) {
	e := h.e
	for {
		out := e.u.Store(addr, val)
		switch out.Kind {
		case machine.OK:
			e.ufoFaultTries = 0
			return
		case machine.HWAborted:
			tm.Unwind(out.Reason)
		case machine.UFOFault:
			if e.faultAllowsMaskedAccess(addr) {
				mustCompleteMasked(e.u.StoreMasked(addr, val))
				return
			}
		}
	}
}

// faultAllowsMaskedAccess is the user-mode UFO fault handler, executed
// while still inside the hardware transaction. It inspects the otable:
// if every protection owner is a retrying (descheduled) transaction, the
// access may complete under masked faults and the retriers are woken
// after commit (Section 6). An active software owner is a real conflict:
// stall and retry (StallOnUFOFault policy) or abort the hardware
// transaction. Returns true to take the masked path; on a stall it
// returns false and the caller retries the access; on abort it unwinds.
func (e *exec) faultAllowsMaskedAccess(addr uint64) bool {
	e.Proc().Elapse(30) // handler dispatch + otable inspection
	line := mem.LineOf(addr)
	if e.s.stm.OwnersAllRetrying(line) {
		e.noteRetriers(line)
		return true
	}
	if e.s.pol.StallOnUFOFault && e.ufoFaultTries < e.s.pol.UFOFaultStallTries {
		e.ufoFaultTries++
		e.Proc().Elapse(e.s.pol.UFOFaultStallCycles)
		return false
	}
	e.ufoFaultTries = 0
	e.u.Abort(machine.AbortUFOFault)
	tm.Unwind(machine.AbortUFOFault)
	return false // unreachable
}

// mustCompleteMasked validates a masked access's outcome: it may still
// abort asynchronously (unwound here) but can no longer fault.
func mustCompleteMasked(out machine.Outcome) {
	switch out.Kind {
	case machine.OK:
		return
	case machine.HWAborted:
		tm.Unwind(out.Reason)
	}
	panic("core: masked access returned " + out.Kind.String())
}

func (e *exec) noteRetriers(line uint64) {
	for _, r := range e.s.stm.RetryingOwners(line) {
		dup := false
		for _, w := range e.toWake {
			if w == r {
				dup = true
				break
			}
		}
		if !dup {
			e.toWake = append(e.toWake, r)
		}
	}
}

func (h hwTx) OnCommit(f func()) { h.e.onCommit = append(h.e.onCommit, f) }

func (h hwTx) Abort() {
	h.e.u.Abort(machine.AbortExplicit)
	tm.Unwind(machine.AbortExplicit)
}

// Nested implements tm.Tx: hardware transactions flatten closed nesting
// (as BTM does); an inner abort therefore aborts the whole transaction —
// which, under a hybrid, fails over to software where partial abort is
// supported.
func (h hwTx) Nested(body func()) bool {
	if !h.e.u.Begin(0) {
		tm.Unwind(machine.AbortNesting)
	}
	if tm.CatchNested(body) {
		h.e.u.Abort(machine.AbortExplicit)
		tm.Unwind(machine.AbortExplicit)
	}
	h.e.u.End()
	return true
}

func (h hwTx) Retry() {
	// Translated to an explicit abort; the abort handler fails over to
	// software where retry is fully supported.
	h.e.u.Abort(machine.AbortExplicit)
	tm.UnwindRetry()
}

func (h hwTx) Syscall() {
	h.e.u.Abort(machine.AbortSyscall)
	tm.Unwind(machine.AbortSyscall)
}
