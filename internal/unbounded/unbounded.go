// Package unbounded implements the idealized unbounded hardware TM the
// paper compares against (§5): the BTM execution model with no
// footprint limit, flash abort, and a minimal abort handler that retries
// every transaction in hardware (resolving page faults and interrupts by
// re-execution). As in the paper, this is optimistic with respect to any
// buildable pure-HTM proposal; it serves as the performance ceiling.
package unbounded

import (
	"repro/internal/btm"
	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/tm"
)

// System is the unbounded HTM. It implements tm.System.
type System struct {
	m     *machine.Machine
	stats tm.Stats
	// BackoffBase is the exponential-backoff unit for contention retries.
	// Zero selects cm.DefaultBase (64).
	BackoffBase uint64

	backoff cm.Spec
	cmgr    *cm.Manager
}

// New builds the system.
func New(m *machine.Machine) *System {
	return &System{m: m}
}

// SetBackoffPolicy implements cm.Tunable: it selects the contention-
// management policy. Call before the first transaction runs.
func (s *System) SetBackoffPolicy(spec cm.Spec) {
	s.backoff = spec
	s.cmgr = nil
}

// CM implements cm.Instrumented (built lazily so BackoffBase tweaks
// after New still take effect).
func (s *System) CM() *cm.Manager {
	if s.cmgr == nil {
		s.cmgr = cm.NewManager(s.backoff, s.BackoffBase)
	}
	return s.cmgr
}

// Name implements tm.System.
func (s *System) Name() string { return "unbounded-htm" }

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return &s.stats }

// Exec implements tm.System.
func (s *System) Exec(p *machine.Proc) tm.Exec {
	return &exec{s: s, u: btm.NewUnbounded(p)}
}

type exec struct {
	s        *System
	u        *btm.Unit
	onCommit []func()
}

var _ tm.Exec = (*exec)(nil)

func (e *exec) Proc() *machine.Proc { return e.u.Proc() }

// Load and Store are plain accesses: a pure HTM installs no protection,
// and its strong atomicity comes from coherence.
func (e *exec) Load(addr uint64) uint64 {
	v, out := e.Proc().NTRead(addr)
	if out.Kind != machine.OK {
		panic("unbounded: non-transactional read outcome " + out.Kind.String())
	}
	return v
}

func (e *exec) Store(addr, val uint64) {
	if out := e.Proc().NTWrite(addr, val); out.Kind != machine.OK {
		panic("unbounded: non-transactional write outcome " + out.Kind.String())
	}
}

// Atomic retries in hardware until commit — the defining property (and
// hardware burden) of an unbounded HTM.
func (e *exec) Atomic(body func(tm.Tx)) {
	age := e.s.m.NextAge()
	cmgr := e.s.CM()
	p := e.Proc()
	p.TxLifeBegin()
	// Attempts run on the hardware path until the starvation escalation
	// takes the global token; then they are serialized fallback attempts.
	path := machine.PathHTM
	aborts := 0
	for {
		p.TxLifeAttempt(path)
		e.onCommit = e.onCommit[:0]
		e.u.Begin(age)
		reason, retryReq, aborted := tm.Catch(func() { body(hwTx{e}) })
		if !aborted {
			out := e.u.End()
			if out.Kind == machine.OK {
				e.s.stats.HWCommits++
				p.TxLifeCommit(path)
				cmgr.TxDone(age)
				for _, f := range e.onCommit {
					f()
				}
				return
			}
			reason = out.Reason
		}
		if retryReq {
			// No software fallback exists: emulate transactional waiting
			// by polling re-execution with a long backoff.
			e.s.stats.Retries++
			p.TxLifeRetryWait()
			cmgr.RetryPoll(e.Proc())
			continue
		}
		p.TxLifeAbort(path, reason)
		if reason == machine.AbortPageFault {
			// A page fault is not contention: resolve it (touch the page
			// non-transactionally) with the standard fixed stall and
			// re-execute — the package doc's "resolving page faults ... by
			// re-execution", which the old loop wrongly routed through
			// exponential contention backoff.
			cmgr.PageFaultStall(e.Proc())
			continue
		}
		aborts++ // the policy clamps the shift (saturating counter)
		e.s.stats.HWRetries++
		if cmgr.OnAbort(e.Proc(), age, aborts, reason) != cm.EscalateNone {
			// Starving per the policy: with no software fallback, take the
			// global serialization token (released at commit) so this
			// transaction stops losing to the whole machine.
			cmgr.AcquireToken(e.Proc(), age)
			path = machine.PathFallback
		}
	}
}

type hwTx struct{ e *exec }

var _ tm.Tx = hwTx{}

func (h hwTx) Load(addr uint64) uint64 {
	v, out := h.e.u.Load(addr)
	switch out.Kind {
	case machine.OK:
		return v
	case machine.HWAborted:
		tm.Unwind(out.Reason)
	}
	panic("unbounded: unexpected load outcome " + out.Kind.String())
}

func (h hwTx) Store(addr, val uint64) {
	out := h.e.u.Store(addr, val)
	switch out.Kind {
	case machine.OK:
		return
	case machine.HWAborted:
		tm.Unwind(out.Reason)
	}
	panic("unbounded: unexpected store outcome " + out.Kind.String())
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
	h.e.u.Abort(machine.AbortExplicit)
	tm.UnwindRetry()
}

// Syscall is idealized as nearly free: the paper's unbounded HTM handles
// in-transaction system calls "much less gracefully" through abort-handler
// complexity, but its Figure 7 pure-HTM reference line is flat — the
// forced failovers do not apply to it.
func (h hwTx) Syscall() { h.e.Proc().Elapse(10) }
