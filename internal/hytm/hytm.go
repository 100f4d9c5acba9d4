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
//
// The retry structure is tm.Driver; this package supplies the barrier in
// front of every hardware access, an abort table in which the barrier's
// explicit abort is a counted conflict, and weakly-atomic USTM as the
// software path.
package hytm

import (
	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
	"repro/internal/ustm"
)

// Dispositions is HyTM's abort handler: the UFO hybrid's, except that an
// explicit abort is a barrier-detected STM conflict — retried in
// hardware, but counted against MaxConflictRetries, because the STM
// transaction may be long-lived. A Retry request aborts explicitly too,
// and is counted with them.
var Dispositions = tm.Dispositions{
	machine.AbortOverflow:     tm.Fatal,
	machine.AbortExplicit:     tm.Counted,
	machine.AbortInterrupt:    tm.Transient,
	machine.AbortConflict:     tm.Transient,
	machine.AbortSyscall:      tm.Fatal,
	machine.AbortUFOKill:      tm.Transient,
	machine.AbortUFOFault:     tm.Transient,
	machine.AbortNonTConflict: tm.Transient,
	machine.AbortNesting:      tm.Fatal,
}

// BarrierCycles is the instrumentation logic charged per hardware
// barrier, on top of the transactional otable-row access.
const BarrierCycles = 6

// MaxConflictRetries bounds in-hardware retries of barrier-detected
// conflicts before failing over (HyTM retries in hardware, but must
// eventually yield to the blocking STM transaction).
const MaxConflictRetries = 8

// System implements tm.System.
type System struct {
	tm.Handler
	stm *ustm.STM
}

// New builds a HyTM over the machine, backing off as kind says. The
// embedded USTM is weakly atomic.
func New(m *machine.Machine, cfg ustm.Config, kind cm.Kind) *System {
	cfg.StrongAtomicity = false
	s := &System{stm: ustm.New(m, cfg)}
	s.Handler = tm.NewHandler("hytm", kind)
	s.On, s.Limit, s.RetryReason = Dispositions, MaxConflictRetries, machine.AbortExplicit
	return s
}

// Exec implements tm.System. HyTM is weakly atomic: non-transactional
// accesses are the driver's uninstrumented ones (that is its semantic
// weakness).
// The software path is bound to p's Thread: a context p keeps too.
func (s *System) Exec(p *machine.Proc) tm.Exec {
	t := s.stm.Thread(p)
	e, fresh := machine.ContextOf[exec](p)
	if fresh {
		e.Tx, e.SW = hwTx{e.HW(), e}, t
	}
	*e = exec{Driver: e.Rebind(p, &s.Handler), s: s}
	return e
}

// exec is one processor's HyTM context.
type exec struct {
	tm.Driver
	s *System
}

// hwTx is HyTM's *instrumented* hardware transaction handle: every access
// is preceded by a barrier that transactionally reads the otable row
// covering the line and aborts if a conflicting STM record exists.
type hwTx struct {
	tm.HW
	e *exec
}

// barrier returns normally when no conflicting otable record exists; the
// row read joins the hardware transaction's read set.
func (h hwTx) barrier(addr uint64, write bool) {
	stm := h.e.s.stm
	line := mem.LineOf(addr)
	h.D.P.Elapse(BarrierCycles)
	h.HW.Load(stm.RowAddr(line)) // transactional otable read
	if owner, w := stm.Owner(line); owner >= 0 && (write || w) {
		// Attribute the abort to the software transaction owning the
		// conflicting otable record, not to ourselves: the contention is
		// between this hardware transaction and that STM peer.
		h.AbortBy(machine.AbortExplicit, owner, mem.LineAddr(line))
	}
}

func (h hwTx) Load(addr uint64) uint64 {
	h.barrier(addr, false)
	return h.HW.Load(addr)
}

func (h hwTx) Store(addr, val uint64) {
	h.barrier(addr, true)
	h.HW.Store(addr, val)
}
