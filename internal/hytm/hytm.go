// Package hytm implements the HyTM baseline (Damron et al., as modeled in
// the paper's §5): a hybrid whose hardware transactions are
// instrumented with read/write barriers that inspect the STM's ownership
// table to avoid violating software-transaction atomicity.
//
// The barriers read otable rows *transactionally*, which is the source of
// HyTM's three measured pathologies: per-access instrumentation overhead,
// transactional-footprint inflation (otable rows compete with data for L1
// sets, causing extra overflows), and false conflicts when unrelated STM
// activity updates an otable row a hardware transaction previously read.
// Its STM half is USTM without strong atomicity (HyTM predates UFO).
package hytm

import (
	"repro/internal/btm"
	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
	"repro/internal/ustm"
)

// System implements tm.System.
type System struct {
	m   *machine.Machine
	stm *ustm.STM

	// BarrierCycles is the instrumentation logic charged per hardware
	// barrier, on top of the transactional otable-row access.
	BarrierCycles uint64
	// BackoffBase is the exponential-backoff unit for hardware retries.
	// Zero selects cm.DefaultBase (64).
	BackoffBase uint64
	// MaxConflictRetries bounds in-hardware retries of barrier-detected
	// conflicts before failing over (HyTM retries in hardware, but must
	// eventually yield to the blocking STM transaction).
	MaxConflictRetries int

	backoff cm.Spec
	cmgr    *cm.Manager
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

// New builds a HyTM over the machine. The embedded USTM is weakly atomic.
func New(m *machine.Machine, cfg ustm.Config) *System {
	cfg.StrongAtomicity = false
	return &System{
		m:                  m,
		stm:                ustm.New(m, cfg),
		BarrierCycles:      6,
		MaxConflictRetries: 8,
	}
}

// Name implements tm.System.
func (s *System) Name() string { return "hytm" }

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return s.stm.Stats() }

// Exec implements tm.System.
func (s *System) Exec(p *machine.Proc) tm.Exec {
	return &exec{s: s, u: btm.New(p), t: s.stm.Thread(p)}
}

type exec struct {
	s        *System
	u        *btm.Unit
	t        *ustm.Thread
	onCommit []func()
}

var _ tm.Exec = (*exec)(nil)

func (e *exec) Proc() *machine.Proc { return e.u.Proc() }

// Load / Store: HyTM is weakly atomic; non-transactional accesses are
// uninstrumented (that is its semantic weakness).
func (e *exec) Load(addr uint64) uint64 {
	v, out := e.Proc().NTRead(addr)
	if out.Kind != machine.OK {
		panic("hytm: read outcome " + out.Kind.String())
	}
	return v
}

func (e *exec) Store(addr, val uint64) {
	if out := e.Proc().NTWrite(addr, val); out.Kind != machine.OK {
		panic("hytm: write outcome " + out.Kind.String())
	}
}

// Atomic implements tm.Exec with the same abort-handler skeleton as the
// UFO hybrid, plus failover after repeated barrier-detected conflicts.
func (e *exec) Atomic(body func(tm.Tx)) {
	age := e.s.m.NextAge()
	stats := e.s.Stats()
	cmgr := e.s.CM()
	p := e.Proc()
	p.TxLifeBegin()
	conflicts := 0
	aborts := 0
	for {
		p.TxLifeAttempt(machine.PathHTM)
		reason, committed := e.tryHW(age, body)
		if committed {
			stats.HWCommits++
			p.TxLifeCommit(machine.PathHTM)
			cmgr.TxDone(age)
			for _, f := range e.onCommit {
				f()
			}
			return
		}
		p.TxLifeAbort(machine.PathHTM, reason)
		switch reason {
		case machine.AbortOverflow, machine.AbortSyscall, machine.AbortIO,
			machine.AbortException, machine.AbortNesting:
			e.failover(age, body)
			cmgr.TxDone(age)
			return
		case machine.AbortExplicit:
			// Barrier-detected STM conflict: retry in hardware, but the
			// STM transaction may be long-lived — fail over eventually.
			conflicts++
			if conflicts >= e.s.MaxConflictRetries {
				e.failover(age, body)
				cmgr.TxDone(age)
				return
			}
		case machine.AbortPageFault:
			cmgr.PageFaultStall(e.Proc())
			continue
		default:
			// Conflict, nonT-conflict, interrupt: retry in hardware.
		}
		aborts++ // the policy clamps the shift (saturating counter)
		stats.HWRetries++
		if cmgr.OnAbort(e.Proc(), age, aborts, reason) != cm.EscalateNone {
			// Starving per the policy: serialize through the STM early.
			e.failover(age, body)
			cmgr.TxDone(age)
			return
		}
	}
}

func (e *exec) failover(age uint64, body func(tm.Tx)) {
	e.s.Stats().Failovers++
	ustm.RunTx(e.t, age, body)
}

func (e *exec) tryHW(age uint64, body func(tm.Tx)) (machine.AbortReason, bool) {
	e.onCommit = e.onCommit[:0]
	if !e.u.Begin(age) {
		return machine.AbortNesting, false
	}
	reason, retryReq, aborted := tm.Catch(func() { body(hwTx{e}) })
	if aborted {
		if retryReq {
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

// hwTx is HyTM's *instrumented* hardware transaction handle: every access
// is preceded by a barrier that transactionally reads the otable row
// covering the line and aborts if a conflicting STM record exists.
type hwTx struct{ e *exec }

var _ tm.Tx = hwTx{}

// barrier returns normally when no conflicting otable record exists; the
// row read joins the hardware transaction's read set.
func (h hwTx) barrier(addr uint64, write bool) {
	e := h.e
	line := mem.LineOf(addr)
	e.Proc().Elapse(e.s.BarrierCycles)
	_, out := e.u.Load(e.s.stm.RowAddr(line)) // transactional otable read
	switch out.Kind {
	case machine.OK:
	case machine.HWAborted:
		tm.Unwind(out.Reason)
	default:
		panic("hytm: otable read outcome " + out.Kind.String())
	}
	if e.s.stm.LineConflicts(line, write) {
		// Attribute the abort to the software transaction owning the
		// conflicting otable record, not to ourselves: the contention is
		// between this hardware transaction and that STM peer.
		agg := e.s.stm.ConflictingOwnerProc(line, write)
		e.u.AbortAttributed(machine.AbortExplicit, agg, mem.LineAddr(line))
		tm.Unwind(machine.AbortExplicit)
	}
}

func (h hwTx) Load(addr uint64) uint64 {
	h.barrier(addr, false)
	v, out := h.e.u.Load(addr)
	switch out.Kind {
	case machine.OK:
		return v
	case machine.HWAborted:
		tm.Unwind(out.Reason)
	}
	panic("hytm: load outcome " + out.Kind.String())
}

func (h hwTx) Store(addr, val uint64) {
	h.barrier(addr, true)
	out := h.e.u.Store(addr, val)
	switch out.Kind {
	case machine.OK:
		return
	case machine.HWAborted:
		tm.Unwind(out.Reason)
	}
	panic("hytm: store outcome " + out.Kind.String())
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

func (h hwTx) Syscall() {
	h.e.u.Abort(machine.AbortSyscall)
	tm.Unwind(machine.AbortSyscall)
}
