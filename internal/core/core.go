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
// The transaction structure itself — Figure 4's try BTM, run the abort
// handler, retry in hardware or fail over — is tm.Driver. This package
// supplies what is the UFO hybrid's own: Algorithm 3 as a table
// (Dispositions: overflow, syscall, nesting and explicit aborts fail
// over; interrupts and the conflict family retry in hardware), USTM as
// the software path, the user-mode UFO fault handler inside hardware
// loads and stores, and the post-commit wake-up of retrying software
// transactions. Policy holds what §4.4's contention-management study
// varies, so the Figure 8 sensitivity study can be reproduced.
package core

import (
	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
	"repro/internal/ustm"
)

// Policy collects the hybrid's contention-management choices that
// Figure 8 varies (Section 4.4). The zero Policy is the paper's.
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
}

// FaultHandlerCycles is the UFO fault handler's dispatch and otable
// check. Under StallOnUFOFault, a faulting access stalls
// UFOFaultStallCycles per try, for at most UFOFaultStallTries tries.
const (
	FaultHandlerCycles  = 30
	UFOFaultStallCycles = 60
	UFOFaultStallTries  = 16
)

// Dispositions is the BTM abort handler of Algorithm 3: conditions
// hardware will never satisfy fail over to software, and contention
// retries in hardware — counted against Policy.FailoverOnNthConflict
// when the cause is a conflict.
var Dispositions = tm.Dispositions{
	machine.AbortOverflow:     tm.Fatal,
	machine.AbortExplicit:     tm.Fatal,
	machine.AbortInterrupt:    tm.Transient,
	machine.AbortConflict:     tm.Counted,
	machine.AbortSyscall:      tm.Fatal,
	machine.AbortUFOKill:      tm.Counted,
	machine.AbortUFOFault:     tm.Counted,
	machine.AbortNonTConflict: tm.Counted,
	machine.AbortNesting:      tm.Fatal,
}

// System is the UFO hybrid TM. It implements tm.System.
type System struct {
	tm.Handler
	stm *ustm.STM
	pol Policy
}

// New builds a hybrid over the machine with the given USTM configuration
// and policy, backing off hardware retries as kind says. The USTM must be
// strongly atomic — the hybrid's correctness depends on it — so
// cfg.StrongAtomicity is forced on.
func New(m *machine.Machine, cfg ustm.Config, pol Policy, kind cm.Kind) *System {
	cfg.StrongAtomicity = true
	s := &System{stm: ustm.New(m, cfg), pol: pol}
	s.Handler = tm.NewHandler("ufo-hybrid", kind)
	s.On, s.Limit = Dispositions, pol.FailoverOnNthConflict
	// retry (transactional waiting) inside a hardware transaction compiles
	// to an explicit abort so the transaction fails over to software,
	// where waiting is supported (Section 6).
	s.RetryReason = machine.AbortExplicit
	return s
}

// Exec implements tm.System.
// The hooks are bound to p's Thread: a context p keeps too.
func (s *System) Exec(p *machine.Proc) tm.Exec {
	t := s.stm.Thread(p)
	e, fresh := machine.ContextOf[exec](p)
	if fresh {
		e.Driver = tm.Driver{Tx: hwTx{e.HW(), e}, Begin: t.ForgetWakes, Committed: t.WakeOwed, SW: t}
	}
	*e = exec{Driver: e.Rebind(p, &s.Handler), s: s, t: t}
	return e
}

// exec is the per-thread hybrid execution context.
type exec struct {
	tm.Driver
	s *System
	t *ustm.Thread // the software path; its wake list is the attempt's too
	// ufoFaultTries counts consecutive stall-retries for one access under
	// the StallOnUFOFault policy.
	ufoFaultTries int
}

// Load implements tm.Exec's non-transactional access with USTM's strong
// atomicity fault handling.
func (e *exec) Load(addr uint64) uint64 { return ustm.NTLoad(e.s.stm, e.P, addr) }

// Store implements tm.Exec.
func (e *exec) Store(addr, val uint64) { ustm.NTStore(e.s.stm, e.P, addr, val) }

// hwTx is the zero-instrumentation hardware transaction handle: loads and
// stores go straight to the transactional cache path with no otable
// lookups — the hybrid's whole point. What it adds to the plain handle is
// the UFO fault handler.
type hwTx struct {
	tm.HW
	e *exec
}

func (h hwTx) Load(addr uint64) uint64 { return h.access(addr, false, 0) }

func (h hwTx) Store(addr, val uint64) { h.access(addr, true, val) }

// access is a hardware load or store under the UFO fault handler: a
// faulting access runs the handler, then completes masked, stalls and
// re-issues, or aborts.
func (h hwTx) access(addr uint64, write bool, val uint64) uint64 {
	e := h.e
	for {
		v, out := h.Access(addr, write, val)
		switch out.Kind {
		case machine.OK:
			e.ufoFaultTries = 0
			return v
		case machine.HWAborted:
			tm.Unwind(out.Reason)
		case machine.UFOFault:
			if e.faultAllowsMaskedAccess(addr) {
				e.P.SetUFOEnabled(false)
				v, out = h.Access(addr, write, val)
				e.P.SetUFOEnabled(true)
				mustCompleteMasked(out)
				return v
			}
			// Stalled; loop retries the access.
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
	e.P.Elapse(FaultHandlerCycles)
	if e.t.WakeAtCommit(mem.LineOf(addr)) {
		return true
	}
	if e.s.pol.StallOnUFOFault && e.ufoFaultTries < UFOFaultStallTries {
		e.ufoFaultTries++
		e.P.Elapse(UFOFaultStallCycles)
		return false
	}
	e.ufoFaultTries = 0
	e.HW().AbortFor(machine.AbortUFOFault)
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
