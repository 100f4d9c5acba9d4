package tm

import (
	"repro/internal/cm"
	"repro/internal/machine"
)

// This file is the one transaction driver behind every Atomic in the
// repository: the hybrid transaction structure of the paper's Figure 4 —
// try BTM, run the abort handler, retry in hardware or fail over — with
// Algorithm 3 (the abort handler) as data, and the one retry-until-commit
// loop of the paths that have nowhere further to fall. A system supplies
// its Algorithm 3 row (Handler), its hardware handle if accesses need
// instrumenting (HW), its software path (an SWPath, with its own SWTail
// if it does not back off), and the few hooks below; every attempt's
// lifecycle events, the failover and retry decisions, the
// contention-management calls and the deferred-closure list happen here,
// in one order per arm.
//
// BTM itself (§3.1, Table 1) is here too, as the driver's hardware
// attempt and the HW handle: btm_begin, btm_end and btm_abort with their
// costs, flattened nesting to MaxNesting, and the NACK re-request. The
// conflict detection and versioning underneath are package machine's,
// shared with the unbounded HTM (Handler.Unbounded). Every abort reason
// reaches the abort handler in the machine.Outcome of the access, commit
// or abort that found it; the btm_mov status registers are not modelled
// (DESIGN.md §7).

// Disposition is what a system's abort handler does with one abort
// reason: one cell of its Algorithm 3 row.
type Disposition uint8

// The dispositions.
const (
	// Unclassified is the zero value: the system has not said what the
	// reason means to it. The driver panics naming both.
	Unclassified Disposition = iota
	// Fatal: a condition hardware will never satisfy. Fail over to
	// software now, without a backoff.
	Fatal
	// Counted: retry in hardware after the policy's backoff, but fail
	// over on the Handler.Limit-th such abort.
	Counted
	// Transient: retry in hardware after the policy's backoff.
	Transient
)

// Dispositions is an Algorithm 3 row: one Disposition per abort reason.
type Dispositions [machine.NumAbortReasons]Disposition

// Handler is one system's abort handler and the state its processors
// share: what the driver needs that is per system rather than per
// processor. It is also the system's identity: a driver system embeds it,
// and its Name and CM are the System and cm.Instrumented methods.
type Handler struct {
	name string
	cm   *cm.Manager

	// On classifies every reason a hardware attempt can abort for.
	On Dispositions
	// Limit is how many Counted aborts one transaction takes before it
	// fails over; zero means never.
	Limit int
	// RetryReason is the reason a Retry request inside a hardware attempt
	// is reported and classified under. The USTM-backed hybrids compile
	// retry to an explicit abort (§6), so theirs is AbortExplicit;
	// HybridNOrec reports none and classifies AbortNone as Fatal.
	RetryReason machine.AbortReason
	// Unbounded lifts the L1-capacity limit from hardware attempts: the
	// idealized unbounded HTM of §5.
	Unbounded bool
}

// NewHandler returns the handler of the system called name, backing off
// as kind says.
func NewHandler(name string, kind cm.Kind) Handler {
	return Handler{name: name, cm: cm.NewManager(kind)}
}

// Name implements System.
func (h *Handler) Name() string { return h.name }

// CM implements cm.Instrumented.
func (h *Handler) CM() *cm.Manager { return h.cm }

func (h *Handler) classify(reason machine.AbortReason) Disposition {
	d := h.On[reason]
	if d == Unclassified {
		panic(h.name + ": abort handler does not classify abort reason " + reason.String())
	}
	return d
}

// NT is the weakly-atomic non-transactional half of an Exec: plain
// machine accesses with no barrier and no fault handling. Systems whose
// non-transactional accesses are strongly atomic define their own Load
// and Store over the ones a Driver promotes.
type NT struct{ P *machine.Proc }

// Proc implements Exec.
func (n NT) Proc() *machine.Proc { return n.P }

// Load implements Exec.
func (n NT) Load(addr uint64) uint64 { return mustOK(n.P.NTAccess(addr, false, 0)) }

// Store implements Exec.
func (n NT) Store(addr, val uint64) { mustOK(n.P.NTAccess(addr, true, val)) }

// mustOK returns a plain access's word: one that cannot fault, be NACKed or
// abort, so any other outcome is a bug.
func mustOK(v uint64, out machine.Outcome) uint64 {
	if out.Kind != machine.OK {
		panic("tm: non-transactional access outcome " + out.Kind.String())
	}
	return v
}

// SWPath is a software transaction path with no fallback of its own, as
// the driver's retry-until-commit loop sees it.
type SWPath interface {
	// BeginSW starts an attempt of the transaction identified by id and
	// returns the handle the body runs on.
	BeginSW(id uint64) Tx
	// EndSW finishes the attempt: it tries to commit unless the body
	// aborted, leaves the attempt either way, and reports whether the
	// transaction committed.
	EndSW(aborted bool) bool
}

// SWTail is an SWPath with its own policy after a failed attempt: it
// never backs off, escalates or polls, so its driver needs no Handler.
type SWTail interface {
	SWPath
	PathSW() machine.TxPath // the path its attempts are counted on
	AbortedSW()             // after a counted abort, in place of cm.OnAbort
	WokenSW()               // leaves a woken Retry, in place of EndSW and cm.RetryPoll
}

// Driver is one processor's transaction context. Embedded in a system's
// exec it is a complete Exec: Atomic below, and the NT accesses.
type Driver struct {
	NT
	H *Handler
	// Tx is the handle hardware attempts hand to the body: HW itself, or
	// a system's type embedding it. Nil means there is no hardware half:
	// Atomic runs the software path alone.
	Tx Tx

	// Gate, when set, runs before every hardware attempt and may stall;
	// true sends the transaction to software without an attempt.
	Gate func() bool
	// Begin, when set, runs first inside every hardware attempt:
	// per-attempt state, and subscriptions to what the software path
	// writes. It may abort the attempt (HW.AbortBy).
	Begin func()
	// PreCommit, when set, runs inside the hardware attempt after the
	// body, before the commit.
	PreCommit func()
	// Committed, when set, runs after a hardware commit has been marked
	// and the contention manager told, before the deferred closures.
	Committed func()
	// Software runs the transaction to commit on the software path, when
	// that is more than RunSW over SW. Nil with SW nil too means there is
	// none: hardware attempts retry until one commits.
	Software func(age uint64, body func(Tx))
	// SW is the software path RunSW drives: Atomic's when Tx is nil, and
	// its failover's when Software is nil.
	SW SWPath

	deferred []func()
	again    bool
	depth    int // of the hardware attempt's flattened nest: 1 + the nests open
}

// Rebind returns d's hooks (Tx to SW) over processor p and handler h,
// every other field blank: a kept context's Driver (machine.ContextOf).
func (d *Driver) Rebind(p *machine.Proc, h *Handler) Driver {
	return Driver{NT: NT{P: p}, H: h, Tx: d.Tx, Gate: d.Gate, Begin: d.Begin, PreCommit: d.PreCommit,
		Committed: d.Committed, Software: d.Software, SW: d.SW, deferred: machine.Emptied(d.deferred)}
}

// OnCommit registers f to run once the current attempt has committed.
func (d *Driver) OnCommit(f func()) { d.deferred = append(d.deferred, f) }

// RetryNow marks the current hardware attempt's coming abort as no fault
// of the transaction: the driver returns to the Gate with no backoff and
// nothing counted.
func (d *Driver) RetryNow() { d.again = true }

func (d *Driver) runDeferred() {
	for _, f := range d.deferred {
		f()
	}
	d.deferred = machine.Emptied(d.deferred)
}

// Atomic implements Exec: hardware first, the abort handler deciding
// between another hardware attempt and the software path. A driver with
// only one of the two retries that one until it commits.
func (d *Driver) Atomic(body func(Tx)) {
	h, p := d.H, d.P
	age := p.Machine().NextAge()
	p.TxLifeBegin(age)
	switch {
	case d.Tx == nil:
		d.untilCommit(age, machine.PathSW, body)
		d.committed(age)
		return
	case d.Software == nil && d.SW == nil:
		d.untilCommit(age, machine.PathHTM, body)
		d.committed(age)
		return
	}
	cmgr := h.cm
	counted, aborts := 0, 0
attempts:
	for {
		if d.Gate != nil && d.Gate() {
			break
		}
		p.TxLifeAttempt(machine.PathHTM)
		reason, retry, ok := d.tryHW(age, body)
		if ok {
			p.TxLifeCommit(machine.PathHTM, false)
			d.committed(age)
			return
		}
		if retry {
			reason = h.RetryReason
		}
		p.TxLifeAbort(machine.PathHTM, reason, false)
		if d.again {
			continue
		}
		// The BTM abort handler (Algorithm 3).
		switch h.classify(reason) {
		case Fatal:
			break attempts
		case Counted:
			if counted++; h.Limit > 0 && counted >= h.Limit {
				break attempts
			}
		}
		aborts++ // the policy clamps the shift (saturating counter)
		p.Machine().Count.HWRetries++
		if cmgr.OnAbort(p, age, aborts) {
			// The policy declared this transaction starving: stop burning
			// hardware attempts and serialize it through software.
			break
		}
	}
	// The transaction keeps the age of its first hardware attempt, which
	// is why software transactions are almost always older than the
	// hardware transactions they meet (§4.4).
	p.Machine().Count.Failovers++
	if d.Software != nil {
		d.Software(age, body)
	} else {
		d.RunSW(age, body)
	}
	cmgr.TxDone(age)
}

// committed is the tail of a transaction that committed without failing
// over. A driver with no Handler runs a path with an SWTail, and has no
// contention manager to tell.
func (d *Driver) committed(age uint64) {
	if d.H != nil {
		d.H.cm.TxDone(age)
	}
	if d.Committed != nil {
		d.Committed()
	}
	d.runDeferred()
}

// RunSW runs an already-begun transaction to commit on the software
// path: a hybrid's Software, or a baseline's body inside its lock. The
// caller tells the contention manager.
func (d *Driver) RunSW(id uint64, body func(Tx)) {
	d.untilCommit(id, machine.PathSW, body)
	d.runDeferred()
}

// untilCommit retries attempts on one path until one commits, for paths
// with nowhere further to fall. A path with an SWTail runs its own tails;
// otherwise a Retry request is emulated by polling re-execution, and a
// transaction the policy declares starving takes the global
// serialization token (released by TxDone) and runs its remaining
// attempts as serialized fallback attempts.
func (d *Driver) untilCommit(id uint64, path machine.TxPath, body func(Tx)) {
	h, p := d.H, d.P
	try, hw := (*Driver).trySW, path == machine.PathHTM
	if hw {
		try = (*Driver).tryHW
	}
	tail, own := d.SW.(SWTail)
	if own {
		path = tail.PathSW()
	}
	for aborts := 0; ; {
		p.TxLifeAttempt(path)
		reason, retry, ok := try(d, id, body)
		switch {
		case ok:
			p.TxLifeCommit(path, !hw)
			return
		case retry && own:
			p.TxLifeRetryWait()
			tail.WokenSW()
			continue
		case retry:
			p.TxLifeRetryWait()
			if !hw {
				d.SW.EndSW(true)
			}
			h.cm.RetryPoll(p)
			continue
		}
		p.TxLifeAbort(path, reason, !hw)
		if own {
			tail.AbortedSW()
			continue
		}
		if hw {
			h.classify(reason) // with nowhere to fall, every classified abort retries
			p.Machine().Count.HWRetries++
		}
		aborts++ // the policy clamps the shift (saturating counter)
		if h.cm.OnAbort(p, id, aborts) {
			h.cm.AcquireToken(p, id)
			path = machine.PathFallback
		}
	}
}

// tryHW attempts the transaction in BTM once: btm_begin, the body, and
// btm_end, which publishes the attempt's writes unless an abort is
// pending. It reports the abort reason, whether the body asked to Retry,
// and whether it committed.
func (d *Driver) tryHW(age uint64, body func(Tx)) (machine.AbortReason, bool, bool) {
	d.deferred = d.deferred[:0]
	d.again = false
	d.depth = 1
	d.P.BeginHW(age, !d.H.Unbounded)
	d.P.Elapse(HWBeginCycles)
	reason, retry, aborted := Catch(func() {
		if d.Begin != nil {
			d.Begin()
		}
		body(d.Tx)
		if d.PreCommit != nil {
			d.PreCommit()
		}
	})
	if aborted {
		return reason, retry, false
	}
	out := d.P.CommitHW()
	d.P.Elapse(HWEndCycles)
	if out.Kind == machine.HWAborted {
		return out.Reason, false, false
	}
	return machine.AbortNone, false, true
}

// trySW attempts the transaction on the software path once. A Retry
// request returns with the attempt still open: untilCommit leaves it.
func (d *Driver) trySW(id uint64, body func(Tx)) (machine.AbortReason, bool, bool) {
	d.deferred = d.deferred[:0]
	tx := d.SW.BeginSW(id)
	reason, retry, aborted := Catch(func() { body(tx) })
	switch {
	case retry:
		return reason, true, false
	case d.SW.EndSW(aborted):
		return machine.AbortNone, false, true
	case reason == machine.AbortNone:
		reason = machine.AbortConflict // failed commit-time validation
	}
	return reason, false, false
}

// The costs of BTM's instructions (Table 1), on top of their memory
// traffic. A btm_begin or btm_end inside a transaction only moves the
// flattened nest's depth.
const (
	HWBeginCycles = 3 // btm_begin: checkpoint the registers
	HWEndCycles   = 2 // btm_end: flash-clear SR/SW, drop the checkpoint
	HWAbortCycles = 2 // btm_abort: flash-clear SR/SW, restore the checkpoint
	HWNestCycles  = 1 // a nested btm_begin or btm_end
)

// MaxNesting is BTM's flattened-nesting depth limit, the transaction
// included: an attempt opens at most MaxNesting-1 nests, and opening one
// more aborts it with AbortNesting.
const MaxNesting = 8

// HW is the hardware transaction handle: uninstrumented accesses straight
// to the transactional cache path, and BTM's behaviour for everything
// else a body may ask. It is pointer-shaped, so handing it to a body as a
// Tx does not allocate. A system whose accesses need more — barriers, a
// fault handler, a written flag — embeds it and overrides Load and Store.
type HW struct{ D *Driver }

var _ Tx = HW{}

// HW returns the driver's plain hardware handle.
func (d *Driver) HW() HW { return HW{D: d} }

// Access is the transactional load or store, re-requested after every
// NACK (the paper's 20-cycle retry). Its outcome is OK, UFOFault or
// HWAborted, never Nacked.
func (h HW) Access(addr uint64, write bool, val uint64) (uint64, machine.Outcome) {
	p := h.D.P
	for {
		v, out := p.TxAccess(addr, write, val)
		if out.Kind != machine.Nacked {
			return v, out
		}
		p.Elapse(machine.NackCycles)
	}
}

// ok returns the access's word, or unwinds the body if the access found
// the transaction aborted.
func (h HW) ok(v uint64, out machine.Outcome) uint64 {
	switch out.Kind {
	case machine.OK:
		return v
	case machine.HWAborted:
		Unwind(out.Reason)
	}
	panic(h.D.H.name + ": hardware access outcome " + out.Kind.String())
}

// Load implements Tx.
func (h HW) Load(addr uint64) uint64 { return h.ok(h.Access(addr, false, 0)) }

// Store implements Tx.
func (h HW) Store(addr, val uint64) { h.ok(h.Access(addr, true, val)) }

// OnCommit implements Tx.
func (h HW) OnCommit(f func()) { h.D.OnCommit(f) }

// abort aborts the attempt for reason (btm_abort), attributed as
// machine.Proc.AbortHW says, and returns the reason the hardware retired;
// the caller unwinds the body.
func (h HW) abort(reason machine.AbortReason, aggressor int, addr uint64, hasAddr bool) machine.AbortReason {
	reason = h.D.P.AbortHW(reason, aggressor, addr, hasAddr)
	h.D.P.Elapse(HWAbortCycles)
	return reason
}

// AbortFor aborts the attempt for reason and unwinds the body with the
// reason the hardware retired: a peer's kill that was already pending
// wins over the one asked for.
func (h HW) AbortFor(reason machine.AbortReason) { Unwind(h.abort(reason, -1, 0, false)) }

// Abort implements Tx.
func (h HW) Abort() { h.AbortFor(machine.AbortExplicit) }

// AbortBy aborts the attempt on another party's behalf: the conflict
// edge is attributed to processor aggressor (-1 for unknown) over addr.
func (h HW) AbortBy(reason machine.AbortReason, aggressor int, addr uint64) {
	Unwind(h.abort(reason, aggressor, addr, true))
}

// Nested implements Tx: hardware transactions flatten closed nesting (as
// BTM does), so an inner abort aborts the whole transaction — which under
// a hybrid fails over to software, where partial abort is supported.
func (h HW) Nested(body func()) bool {
	d := h.D
	if d.depth++; d.depth > MaxNesting {
		h.AbortFor(machine.AbortNesting)
	}
	d.P.Elapse(HWNestCycles)
	if CatchNested(body) {
		h.Abort()
	}
	d.depth--
	d.P.Elapse(HWNestCycles)
	return true
}

// Retry implements Tx: hardware cannot wait, so the attempt aborts and
// the request unwinds to the driver.
func (h HW) Retry() {
	h.abort(machine.AbortExplicit, -1, 0, false)
	UnwindRetry()
}

// Syscall implements Tx: hardware transactions cannot contain system
// calls.
func (h HW) Syscall() { h.AbortFor(machine.AbortSyscall) }
