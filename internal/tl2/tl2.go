// Package tl2 implements the TL2 software TM of Dice, Shalev, and Shavit,
// which the paper's §5 evaluation uses to link USTM's performance to
// published results.
// TL2 is the algorithmic opposite of USTM on both axes: lazy versioning
// (writes buffer in a redo log until commit) and commit-time conflict
// detection (a global version clock plus per-stripe versioned write
// locks). It is weakly atomic.
//
// The global clock and the lock table live at simulated addresses so
// their traffic is charged like any other memory traffic. The retry loop
// around begin and commit is tm.Driver's, and the redo log, the handle
// bodies hold and closed nesting are tm.Lazy's; this package supplies the
// read barrier, the validation and the commit protocol.
package tl2

import (
	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
)

// Cycles charged for TL2's software logic, on top of its memory traffic.
const (
	BeginCycles    = 12
	BarrierCycles  = 8
	CommitCycles   = 20
	PerWriteCycles = 10 // lock + write-back + unlock logic per stripe
)

// Stripes is the lock-table size (a power of two).
const Stripes = 1 << 16

type stripe struct {
	version uint64
	owner   int // processor ID, valid when locked
	writer  int // 1 + ID of the processor that last committed, 0 if none
	locked  bool
}

// System implements tm.System.
type System struct {
	tm.Handler

	clock     uint64
	clockAddr uint64
	stripes   *machine.Table[stripe] // in the machine's arena; dirtied when first locked
	lockBase  uint64
}

// New builds a TL2 instance over the machine, backing off as kind says.
func New(m *machine.Machine, kind cm.Kind) *System {
	s := &System{
		clockAddr: m.Mem.Sbrk(mem.LineBytes),
		stripes:   machine.TableOf[stripe](m, Stripes),
		lockBase:  m.Mem.Sbrk(Stripes * mem.LineBytes),
	}
	s.Handler = tm.NewHandler("tl2", kind)
	return s
}

// Exec implements tm.System. TL2 is weakly atomic (the driver's plain
// non-transactional accesses) and has no hardware half: the driver's
// retry-until-commit loop runs begin and commit below.
func (s *System) Exec(p *machine.Proc) tm.Exec {
	e, fresh := machine.ContextOf[exec](p)
	if fresh {
		e.tx = tm.Lazy{D: &e.Driver, Miss: e.load, StoreCycles: BarrierCycles}
		e.SW = tm.SWPath{Begin: e.begin, End: e.end, Tx: &e.tx}
	}
	*e = exec{Driver: e.Rebind(p, &s.Handler), s: s, tx: e.tx.Rebind(),
		writeSet: e.writeSet[:0], readSet: e.readSet[:0]}
	return e
}

func (s *System) stripeOf(addr uint64) uint64 {
	return (mem.LineOf(addr) * 0x9E3779B97F4A7C15 >> 19) & (Stripes - 1)
}

func (s *System) stripeAddr(i uint64) uint64 { return s.lockBase + i*mem.LineBytes }

type exec struct {
	tm.Driver
	s *System

	tx       tm.Lazy  // the handle, and the redo log (lazy versioning)
	rv       uint64   // read version (clock sample at begin)
	writeSet []uint64 // stripe indices, deduplicated; built from the log at commit
	readSet  []uint64 // stripe indices, deduplicated
}

// Atomic implements tm.Exec: the standard TL2 loop — speculate, validate,
// commit; abort restarts with backoff.
func (e *exec) Atomic(body func(tm.Tx)) {
	e.AtomicSW(e.P.Machine().NextAge(), body)
}

func (e *exec) begin(uint64) {
	e.rv = e.s.clock
	e.Load(e.s.clockAddr)
	e.tx.Reset()
	e.readSet = e.readSet[:0]
	e.P.Elapse(BeginCycles)
}

// end commits the attempt unless the body already aborted.
func (e *exec) end(aborted bool) bool { return !aborted && e.commit() }

// load implements the TL2 read barrier for a word the transaction has
// not written: sample the stripe lock, read the data, resample — abort if
// the stripe is locked or newer than rv.
func (e *exec) load(addr uint64) uint64 {
	si := e.s.stripeOf(addr)
	st := &e.s.stripes.Rows[si]
	e.touchStripe(si)
	e.P.Elapse(BarrierCycles)
	if st.locked || st.version > e.rv {
		e.recordStripeConflict(st, mem.LineAddr(mem.LineOf(addr)), true)
		tm.Unwind(machine.AbortConflict)
	}
	v := e.Load(addr)
	// Post-validation (the stripe may have changed while the data load
	// paid its latency).
	if st.locked || st.version > e.rv {
		e.recordStripeConflict(st, mem.LineAddr(mem.LineOf(addr)), true)
		tm.Unwind(machine.AbortConflict)
	}
	e.noteStripe(&e.readSet, si)
	return v
}

func (e *exec) noteStripe(set *[]uint64, si uint64) {
	for _, x := range *set {
		if x == si {
			return
		}
	}
	*set = append(*set, si)
}

func (e *exec) touchStripe(si uint64) { e.Load(e.s.stripeAddr(si)) }

func (e *exec) writeStripe(si uint64) { e.Store(e.s.stripeAddr(si), e.s.stripes.Rows[si].version) }

// commit implements TL2's commit protocol. Returns false on validation or
// lock-acquisition failure (the transaction retries).
func (e *exec) commit() bool {
	if e.tx.Log.Len() == 0 {
		// Read-only fast path: reads were validated against rv as they
		// happened.
		e.P.Elapse(CommitCycles)
		return true
	}
	// 1. Lock the write set — the stripes of the words stored, in
	// first-store order (bounded spin: fail fast to avoid deadlock).
	e.writeSet = e.writeSet[:0]
	e.tx.Log.Words(func(addr, _ uint64) { e.noteStripe(&e.writeSet, e.s.stripeOf(addr)) })
	for n, si := range e.writeSet {
		st := &e.s.stripes.Rows[si]
		e.touchStripe(si)
		e.P.Elapse(PerWriteCycles)
		if st.locked && st.owner != e.P.ID() {
			e.recordStripeConflict(st, 0, false)
			e.unlock(e.writeSet[:n])
			return false
		}
		e.s.stripes.Dirty(si)
		st.locked = true
		st.owner = e.P.ID()
		e.writeStripe(si)
	}
	// 2. Increment the global clock.
	e.s.clock++
	wv := e.s.clock
	e.Store(e.s.clockAddr, wv)
	// 3. Validate the read set (skippable when rv+1 == wv, the standard
	// optimization; modeled by still charging the loop when needed).
	if e.rv+1 != wv {
		for _, si := range e.readSet {
			st := &e.s.stripes.Rows[si]
			e.touchStripe(si)
			if (st.locked && st.owner != e.P.ID()) || st.version > e.rv {
				e.recordStripeConflict(st, 0, false)
				e.unlock(e.writeSet)
				return false
			}
		}
	}
	// 4. Write back the redo log (in first-store order, keeping the
	// simulation deterministic) and release locks at version wv.
	e.tx.Log.Words(e.Store)
	for _, si := range e.writeSet {
		st := &e.s.stripes.Rows[si]
		st.version = wv
		st.locked = false
		st.writer = e.P.ID() + 1
		e.writeStripe(si)
	}
	e.P.Elapse(CommitCycles)
	return true
}

// recordStripeConflict records a who-aborted-whom edge against the
// stripe's lock owner (or, when unlocked, its last committer — the
// transaction whose version bump invalidated us; -1 when no one has
// committed the stripe yet).
func (e *exec) recordStripeConflict(st *stripe, addr uint64, hasAddr bool) {
	agg := st.writer - 1
	if st.locked {
		agg = st.owner
	}
	e.P.RecordSWAbortBy(agg, machine.AbortConflict, addr, hasAddr)
}

func (e *exec) unlock(locked []uint64) {
	for _, si := range locked {
		e.s.stripes.Rows[si].locked = false
		e.writeStripe(si)
	}
}
