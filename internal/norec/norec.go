// Package norec implements HybridNOrec (Dalessandro, Carouge, White,
// Dice, Scott, Spear), the value-validating hybrid the paper's related
// work positions against HyTM/PhTM-style designs (§5's evaluation axis;
// ROADMAP head-to-head): best-effort hardware transactions over an
// uninstrumented fast path, with a NOrec software fallback whose commits
// serialize through a single seqlock and validate by value instead of by
// per-stripe locks.
//
// Two commit counters coordinate the paths:
//
//   - the seqlock (odd = a software write-back is in progress) doubles as
//     the STM→STM notification counter — every software commit advances
//     it by two;
//   - a separate HTM commit counter is bumped transactionally by every
//     writing hardware transaction, so a hardware commit invalidates
//     software snapshots atomically with its own commit.
//
// Hardware transactions subscribe to the seqlock by reading it
// transactionally at begin: the software committer's lock-acquisition
// write then aborts every in-flight hardware transaction through
// ordinary coherence, so hardware never observes a torn write-back.
// Software readers log (address, value) pairs and revalidate the whole
// log whenever either counter moves; write-back is a lazy redo log
// applied under the seqlock.
//
// Both counters live at simulated addresses so the polling and
// subscription traffic is charged like any other memory traffic. The
// exemplar's RETRY template knob maps onto MaxHTMRetries and its CM knob
// onto New's cm.Kind.
//
// Both retry loops are tm.Driver's. For the hardware half this package
// supplies the abort table, the subscription that begins an attempt, the
// HTM-counter bump before a writing attempt commits, and the software
// path; for the software half, NOrec's begin, read barrier and commit —
// the redo log, the handle bodies hold and closed nesting are tm.Lazy's.
package norec

import (
	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
)

// Cycles charged for the software path's logic, on top of its memory
// traffic.
const (
	BeginCycles    = 10
	BarrierCycles  = 6 // software read/write barrier logic
	ValidateCycles = 6 // value-log validation setup, per validation pass
	CommitCycles   = 16
	PerWriteCycles = 8 // redo-log write-back logic per entry
	// LockSpinCycles is charged per poll while waiting out a concurrent
	// software write-back (the seqlock is odd).
	LockSpinCycles = 20
)

// MaxHTMRetries bounds hardware retries of counted aborts before failing
// over to the software path (the exemplar's RETRY knob).
const MaxHTMRetries = 8

// Dispositions is HybridNOrec's abort handler: capacity and the
// operations hardware cannot run fail over, as does a Retry request
// (reported with no abort reason: hardware cannot wait for a condition,
// and the software path models retry as polling); every other abort —
// including the seqlock subscription firing during a software write-back
// — is retried in hardware, counted against MaxHTMRetries.
var Dispositions = tm.Dispositions{
	machine.AbortNone:         tm.Fatal,
	machine.AbortOverflow:     tm.Fatal,
	machine.AbortExplicit:     tm.Counted,
	machine.AbortInterrupt:    tm.Counted,
	machine.AbortConflict:     tm.Counted,
	machine.AbortException:    tm.Fatal,
	machine.AbortSyscall:      tm.Fatal,
	machine.AbortIO:           tm.Fatal,
	machine.AbortPageFault:    tm.Fault,
	machine.AbortUFOKill:      tm.Counted,
	machine.AbortUFOFault:     tm.Counted,
	machine.AbortNonTConflict: tm.Counted,
	machine.AbortNesting:      tm.Fatal,
}

// System implements tm.System.
type System struct {
	tm.Handler

	// lockAddr holds the seqlock / software commit counter; htmAddr holds
	// the hardware commit counter. Each gets its own cache line so the
	// hardware subscription (lockAddr only) is not invalidated by
	// hardware-counter bumps.
	lockAddr uint64
	htmAddr  uint64

	// Host-side shadow of the protocol state (safe: only the processor
	// holding the execution token touches it). seq mirrors the seqlock
	// value; lockOwner is the processor holding it (-1 when free);
	// lastWriter is the processor whose commit most recently advanced
	// either counter (-1 when none), used to attribute
	// value-validation failures.
	seq        uint64
	lockOwner  int
	lastWriter int
}

// New builds a HybridNOrec instance over the machine, backing off as kind
// says.
func New(m *machine.Machine, kind cm.Kind) *System {
	s := &System{
		lockAddr:   m.Mem.Sbrk(mem.LineBytes),
		htmAddr:    m.Mem.Sbrk(mem.LineBytes),
		lockOwner:  -1,
		lastWriter: -1,
	}
	s.Handler = tm.NewHandler("hybrid-norec", kind)
	s.On, s.Limit = Dispositions, MaxHTMRetries
	return s
}

// Exec implements tm.System. HybridNOrec is weakly atomic: the driver's
// uninstrumented non-transactional accesses never consult the counters.
func (s *System) Exec(p *machine.Proc) tm.Exec {
	e, fresh := machine.ContextOf[exec](p)
	if fresh {
		e.sw = tm.Lazy{D: &e.Driver, Miss: e.swLoad, StoreCycles: BarrierCycles}
		e.Driver = tm.Driver{Tx: hwTx{e.HW(), e}, Begin: e.subscribe, PreCommit: e.notifySoftware,
			Committed: e.noteWriter, Software: e.RunSW, SW: tm.SWPath{Begin: e.swBegin, End: e.swEnd, Tx: &e.sw}}
	}
	*e = exec{Driver: e.Rebind(p, &s.Handler), s: s, sw: e.sw.Rebind(), valuelog: e.valuelog[:0]}
	return e
}

// logEntry is one value-log record: the value this transaction observed
// at the address. Validation re-reads the address and compares values —
// NOrec's conflict detection has no per-location metadata at all.
type logEntry struct {
	addr uint64
	val  uint64
}

type exec struct {
	tm.Driver
	s *System

	// Hardware-attempt state.
	hwWrote bool

	// Software-attempt state.
	sw       tm.Lazy // the handle, and the redo log (lazy versioning)
	lockSnap uint64  // seqlock sample the value log is valid against
	htmSnap  uint64  // hardware-counter sample ditto
	valuelog []logEntry
}

// subscribe begins a hardware attempt with the transactional seqlock
// read: the line stays in the hardware read set, so a software
// committer's lock-acquisition write aborts this transaction through
// coherence before any torn write-back state is visible.
func (e *exec) subscribe() {
	e.hwWrote = false
	hw := e.HW()
	if hw.Load(e.s.lockAddr)&1 == 1 {
		// A software write-back is in progress: abort (do not stall) and
		// blame the lock holder.
		hw.AbortBy(machine.AbortConflict, e.s.lockOwner, e.s.lockAddr)
	}
}

// notifySoftware bumps the hardware commit counter inside the
// transaction, so the notification to software snapshots commits
// atomically with the data. Read-only hardware transactions skip the
// bump (they invalidate nobody) — see DESIGN.md §16 for this divergence
// from the exemplar.
func (e *exec) notifySoftware() {
	if e.hwWrote {
		hw := e.HW()
		hw.Store(e.s.htmAddr, hw.Load(e.s.htmAddr)+1)
	}
}

// noteWriter makes a committed writer the attribution target for the
// values it changed.
func (e *exec) noteWriter() {
	if e.hwWrote {
		e.s.lastWriter = e.P.ID()
	}
}

// The software path is NOrec: snapshot the counters (swBegin), speculate
// against a redo log and value log, then commit under the seqlock
// (swEnd). NOrec has no native waiting and no fallback of its own, so
// the driver's retry-until-commit loop runs it.

func (e *exec) swBegin(age uint64) {
	// Wait out any in-progress write-back, then snapshot both counters:
	// the value log is valid exactly as long as neither moves.
	for {
		lv := e.Load(e.s.lockAddr)
		if lv&1 == 0 {
			e.lockSnap = lv
			break
		}
		e.P.Machine().Count.SWStalls++
		e.P.Elapse(LockSpinCycles)
	}
	e.htmSnap = e.Load(e.s.htmAddr)
	e.sw.Reset()
	e.valuelog = e.valuelog[:0]
	e.P.SetSTM(true, age)
	e.P.Elapse(BeginCycles)
}

// swEnd commits the attempt unless the body already aborted, and leaves
// the software transaction either way.
func (e *exec) swEnd(aborted bool) bool {
	ok := !aborted && e.swCommit()
	e.P.SetSTM(false, 0)
	return ok
}

// swLoad is the NOrec read barrier for a word the transaction has not
// written: read the value and poll both counters — if either moved since
// the snapshot, the whole value log revalidates before the read is
// accepted and logged. The value log only grows: a read made inside a
// nest that aborts stays in it and is validated with the rest.
func (e *exec) swLoad(addr uint64) uint64 {
	e.P.Elapse(BarrierCycles)
	v := e.Load(addr)
	for e.Load(e.s.lockAddr) != e.lockSnap || e.Load(e.s.htmAddr) != e.htmSnap {
		e.revalidate()
		v = e.Load(addr)
	}
	e.valuelog = append(e.valuelog, logEntry{addr: addr, val: v})
	return v
}

// revalidate re-reads every value-log entry against memory once the
// seqlock is quiescent, unwinding with a conflict abort on the first
// value mismatch; on success the snapshots advance to the new counter
// values (NOrec's snapshot extension).
func (e *exec) revalidate() {
	for {
		lv := e.Load(e.s.lockAddr)
		if lv&1 == 1 {
			e.P.Machine().Count.SWStalls++
			e.P.Elapse(LockSpinCycles)
			continue
		}
		hv := e.Load(e.s.htmAddr)
		e.P.Elapse(ValidateCycles)
		for _, ent := range e.valuelog {
			if e.Load(ent.addr) != ent.val {
				e.abortConflict(ent.addr)
			}
		}
		// The log only stays valid if no commit landed while we re-read.
		if e.Load(e.s.lockAddr) == lv && e.Load(e.s.htmAddr) == hv {
			e.lockSnap, e.htmSnap = lv, hv
			return
		}
	}
}

// abortConflict records a who-aborted-whom edge against the most recent
// committer (value-based validation has no per-location metadata naming
// the writer; the last committed writer is the transaction whose
// write-back invalidated us) and unwinds.
func (e *exec) abortConflict(addr uint64) {
	e.P.RecordSWAbortBy(e.s.lastWriter, machine.AbortConflict,
		mem.LineAddr(mem.LineOf(addr)), true)
	tm.Unwind(machine.AbortConflict)
}

// swCommit implements the NOrec commit protocol. Returns false on
// value-validation failure (the transaction retries).
func (e *exec) swCommit() bool {
	if e.sw.Log.Len() == 0 {
		// Read-only fast path: reads were validated as they happened.
		e.P.Elapse(CommitCycles)
		return true
	}
	// 1. Acquire the seqlock (odd = held). The NT write invalidates the
	// line in every subscribed hardware transaction's read set, aborting
	// them before the write-back begins.
	for {
		lv := e.Load(e.s.lockAddr)
		if lv&1 == 0 && e.s.lockOwner == -1 {
			break
		}
		e.P.Machine().Count.SWStalls++
		e.P.Elapse(LockSpinCycles)
	}
	pre := e.s.seq
	e.s.lockOwner = e.P.ID()
	e.s.seq++
	e.Store(e.s.lockAddr, e.s.seq)
	// 2. Validate if anything committed since the snapshot.
	hv := e.Load(e.s.htmAddr)
	if pre != e.lockSnap || hv != e.htmSnap {
		e.P.Elapse(ValidateCycles)
		for _, ent := range e.valuelog {
			if e.Load(ent.addr) != ent.val {
				e.releaseLock()
				e.P.RecordSWAbortBy(e.s.lastWriter, machine.AbortConflict,
					mem.LineAddr(mem.LineOf(ent.addr)), true)
				return false
			}
		}
	}
	// 3. Write back the redo log (in first-store order, keeping the
	// simulation deterministic). Each NT write also kills any hardware
	// transaction speculating on the line.
	e.sw.Log.Words(func(addr, val uint64) {
		e.Store(addr, val)
		e.P.Elapse(PerWriteCycles)
	})
	// 4. Release the seqlock (back to even = one software commit
	// notification) and become the attribution target for the values we
	// just changed.
	e.releaseLock()
	e.s.lastWriter = e.P.ID()
	e.P.Elapse(CommitCycles)
	return true
}

func (e *exec) releaseLock() {
	e.s.seq++
	e.Store(e.s.lockAddr, e.s.seq)
	e.s.lockOwner = -1
}

// hwTx is the uninstrumented hardware handle, noting whether the attempt
// wrote; the seqlock subscription (taken at begin) stands in for all
// software-path coordination.
type hwTx struct {
	tm.HW
	e *exec
}

func (h hwTx) Store(addr, val uint64) {
	h.HW.Store(addr, val)
	h.e.hwWrote = true
}
