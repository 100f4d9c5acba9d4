// Package sle implements speculative lock elision on top of BTM — the
// paper's point that its hardware-atomicity primitive is useful beyond
// transactional memory (§3.1, citing Rajwar/Goodman): lock-based
// critical sections execute as hardware transactions that merely *read*
// the lock word, so disjoint critical sections under the same lock run
// concurrently; on repeated aborts the lock is acquired for real.
package sle

import (
	"repro/internal/btm"
	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/tm"
)

// Mem is the accessor handed to critical-section bodies (identical shape
// to txlib.Mem, so the shared data structures work under elision too).
type Mem interface {
	Load(addr uint64) uint64
	Store(addr, val uint64)
}

// SpinCycles is the poll interval when waiting for a held lock.
const SpinCycles = 40

// Manager owns the elidable locks of one machine.
type Manager struct {
	m  *machine.Machine
	cm *cm.Manager
	// MaxAttempts is how many elision attempts precede falling back to
	// real acquisition.
	MaxAttempts int

	stats Stats
	locks map[uint64]*lockState
}

// Stats counts elision outcomes.
type Stats struct {
	Elided    uint64 // critical sections completed speculatively
	Acquired  uint64 // critical sections that fell back to the real lock
	Aborts    uint64 // speculative attempts that failed
	LockWaits uint64 // spins on a held lock
}

type lockState struct {
	addr   uint64
	held   bool
	holder int // processor holding (or last to hold) the lock, -1 if none
}

// New creates a manager that backs failed elisions off by the paper's
// policy (the zero cm.Spec).
func New(m *machine.Machine) *Manager {
	return &Manager{
		m:           m,
		cm:          cm.NewManager(cm.Spec{}),
		MaxAttempts: 3,
		locks:       make(map[uint64]*lockState),
	}
}

// Stats returns the elision counters.
func (mgr *Manager) Stats() *Stats { return &mgr.stats }

// CM implements cm.Instrumented.
func (mgr *Manager) CM() *cm.Manager { return mgr.cm }

// NewLock allocates an elidable lock (one simulated line).
func (mgr *Manager) NewLock() Lock {
	addr := mgr.m.Mem.Sbrk(64)
	mgr.locks[addr] = &lockState{addr: addr, holder: -1}
	return Lock{addr: addr}
}

// Lock names an elidable lock.
type Lock struct {
	addr uint64
}

// Exec is the per-processor elision context.
type Exec struct {
	mgr *Manager
	u   *btm.Unit
	p   *machine.Proc

	// seq numbers this context's critical sections; combined with the
	// processor ID it identifies one to the contention manager.
	seq uint64
}

// Exec returns the context for one processor.
func (mgr *Manager) Exec(p *machine.Proc) *Exec {
	return &Exec{mgr: mgr, u: btm.New(p), p: p}
}

// Critical runs body under l, speculatively when possible. The body
// accesses shared data only through the provided accessor and must be
// safe to re-execute (attempts can abort).
func (e *Exec) Critical(l Lock, body func(Mem)) {
	st := e.mgr.locks[l.addr]
	cmgr := e.mgr.cm
	id := uint64(e.p.ID())<<32 | e.seq
	e.seq++
	e.p.TxLifeBegin()
	for attempt := 0; attempt < e.mgr.MaxAttempts; attempt++ {
		e.p.TxLifeAttempt(machine.PathHTM)
		ok, reason := e.tryElide(st, body)
		if ok {
			e.mgr.stats.Elided++
			e.p.TxLifeCommit(machine.PathHTM)
			cmgr.TxDone(id)
			return
		}
		e.mgr.stats.Aborts++
		e.p.TxLifeAbort(machine.PathHTM, reason)
		// attempt is 0-based here (the first failed elision backs off by
		// one Base unit), matching the original loop; the policy clamps
		// the shift, which the original `Base << attempt` did not — any
		// MaxAttempts > 57 used to overflow the uint64 into zero-or-absurd
		// delays.
		if cmgr.OnAbort(e.p, id, attempt, reason) != cm.EscalateNone {
			// Starving per the policy: stop speculating now and take the
			// real lock below.
			break
		}
	}
	// Fall back: take the lock for real. The write to the lock word
	// aborts every concurrent elider (their speculative read of the word
	// conflicts), which is exactly SLE's correctness argument. The body's
	// accesses then go straight to memory.
	e.p.TxLifeAttempt(machine.PathFallback)
	e.acquire(st)
	func() {
		defer e.release(st)
		body(tm.NT{P: e.p})
	}()
	e.mgr.stats.Acquired++
	e.p.TxLifeCommit(machine.PathFallback)
	cmgr.TxDone(id)
}

// tryElide attempts the critical section as a hardware transaction,
// reporting the abort reason on failure.
func (e *Exec) tryElide(st *lockState, body func(Mem)) (bool, machine.AbortReason) {
	e.u.Begin(e.mgr.m.NextAge())
	reason, _, aborted := tm.Catch(func() {
		// Speculatively read the lock word: it must be free, and it
		// joins the read set so a real acquisition kills this attempt.
		v, out := e.u.Load(st.addr)
		if out.Kind == machine.HWAborted {
			tm.Unwind(out.Reason)
		}
		check(out)
		if v != 0 {
			// The lock holder is the party this failed elision conflicts
			// with; attribute the abort edge accordingly.
			e.u.AbortAttributed(machine.AbortExplicit, st.holder, st.addr)
			tm.Unwind(machine.AbortExplicit)
		}
		body(speculative{e})
	})
	if aborted {
		return false, reason
	}
	out := e.u.End()
	if out.Kind == machine.OK {
		return true, machine.AbortNone
	}
	return false, out.Reason
}

func (e *Exec) acquire(st *lockState) {
	for {
		_, out := e.p.NTRead(st.addr)
		check(out)
		if !st.held {
			st.held = true
			st.holder = e.p.ID()
			check(e.p.NTWrite(st.addr, 1))
			return
		}
		e.mgr.stats.LockWaits++
		e.p.Elapse(SpinCycles)
	}
}

func (e *Exec) release(st *lockState) {
	st.held = false
	check(e.p.NTWrite(st.addr, 0))
}

// speculative routes body accesses through the hardware transaction.
type speculative struct{ e *Exec }

func (s speculative) Load(addr uint64) uint64 {
	v, out := s.e.u.Load(addr)
	if out.Kind == machine.HWAborted {
		tm.Unwind(out.Reason)
	}
	check(out)
	return v
}

func (s speculative) Store(addr, val uint64) {
	out := s.e.u.Store(addr, val)
	if out.Kind == machine.HWAborted {
		tm.Unwind(out.Reason)
	}
	check(out)
}

func check(out machine.Outcome) {
	if out.Kind != machine.OK {
		panic("sle: unexpected outcome " + out.Kind.String())
	}
}
