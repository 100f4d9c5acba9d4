// Package btm implements BTM, the paper's "best-effort" hardware
// transactional memory (§3.1): transactions execute entirely in
// the L1 with speculative read/write tracking, abort on set overflow,
// interrupt, system call, I/O, exception, or coherence conflict, support
// only flattened nesting, and report their fate in the machine.Outcome
// each operation returns (Table 1: btm_begin / btm_end / btm_abort; the
// btm_mov status registers are not modelled, since every abort handler
// here takes the reason from the Outcome — DESIGN.md §7).
//
// The conflict-detection and versioning mechanism itself lives in package
// machine (shared with the unbounded HTM); this package supplies BTM's
// ISA-level behaviour: nesting flattening and NACK re-request (the
// paper's 20-cycle retry).
package btm

import (
	"repro/internal/machine"
)

// MaxNesting is the hardware flattened-nesting depth limit.
const MaxNesting = 8

// Unit is one processor's BTM context.
type Unit struct {
	p       *machine.Proc
	bounded bool
	depth   int
}

// New returns the BTM unit for a processor.
func New(p *machine.Proc) *Unit { return &Unit{p: p, bounded: true} }

// NewUnbounded returns a unit with the same interface whose transactions
// are not limited by the L1 (the idealized unbounded HTM of Section 5).
func NewUnbounded(p *machine.Proc) *Unit { return &Unit{p: p, bounded: false} }

// Begin starts (or, when nested, flattens into) a transaction
// (btm_begin). It returns false if the nesting depth limit was exceeded,
// in which case the transaction has been aborted with AbortNesting.
func (u *Unit) Begin(age uint64) bool {
	if u.p.HW() != nil {
		u.depth++
		if u.depth > MaxNesting {
			u.Abort(machine.AbortNesting)
			return false
		}
		u.p.Elapse(1)
		return true
	}
	u.depth = 1
	u.p.BeginHW(age, u.bounded)
	u.p.Elapse(3) // register checkpoint
	return true
}

// End commits the (outermost) transaction (btm_end). For nested ends it
// just pops the flattened depth. It returns the commit outcome; a
// pending asynchronous abort surfaces here.
func (u *Unit) End() machine.Outcome {
	if u.p.HW() == nil {
		panic("btm: End with no transaction")
	}
	if u.depth > 1 {
		u.depth--
		u.p.Elapse(1)
		return machine.Outcome{Kind: machine.OK}
	}
	u.depth = 0
	out := u.p.CommitHW()
	u.note(out)
	u.p.Elapse(2) // flash-clear SR/SW, drop checkpoint
	return out
}

// Abort explicitly aborts the transaction (btm_abort) for the given
// reason.
func (u *Unit) Abort(reason machine.AbortReason) {
	if u.p.HW() == nil {
		panic("btm: Abort with no transaction")
	}
	u.depth = 0
	u.p.AbortHW(reason)
	u.p.Elapse(2)
}

// AbortAttributed aborts like Abort but attributes the conflict edge to
// the aggressor processor (-1 for self) over the given address. Hybrids
// whose software barriers detect a conflict on another transaction's
// behalf use this so contention profiles blame the right party.
func (u *Unit) AbortAttributed(reason machine.AbortReason, aggressor int, addr uint64) {
	if u.p.HW() == nil {
		panic("btm: Abort with no transaction")
	}
	u.depth = 0
	u.p.AbortHWAttributed(reason, aggressor, addr)
	u.p.Elapse(2)
}

// note ends the flattened nest when an access reports an abort.
func (u *Unit) note(out machine.Outcome) {
	if out.Kind == machine.HWAborted {
		u.depth = 0
	}
}

// Load performs a transactional load, transparently re-requesting after
// NACKs (the paper's 20-cycle retry). The returned outcome is OK,
// UFOFault, or HWAborted — never Nacked.
func (u *Unit) Load(addr uint64) (uint64, machine.Outcome) {
	for {
		v, out := u.p.TxRead(addr)
		if out.Kind != machine.Nacked {
			u.note(out)
			return v, out
		}
		u.p.Elapse(machine.NackCycles)
	}
}

// Store performs a transactional store with the same NACK handling.
func (u *Unit) Store(addr, val uint64) machine.Outcome {
	for {
		out := u.p.TxWrite(addr, val)
		if out.Kind != machine.Nacked {
			u.note(out)
			return out
		}
		u.p.Elapse(machine.NackCycles)
	}
}

// LoadMasked performs a transactional load with UFO faults disabled for
// the duration of the access — the hybrid's fault handler uses this after
// determining that the protection belongs only to retrying (descheduled)
// transactions (Section 6).
func (u *Unit) LoadMasked(addr uint64) (uint64, machine.Outcome) {
	u.p.SetUFOEnabled(false)
	v, out := u.Load(addr)
	u.p.SetUFOEnabled(true)
	return v, out
}

// StoreMasked is the store counterpart of LoadMasked.
func (u *Unit) StoreMasked(addr, val uint64) machine.Outcome {
	u.p.SetUFOEnabled(false)
	out := u.Store(addr, val)
	u.p.SetUFOEnabled(true)
	return out
}
