// Package seq provides the two non-transactional baselines: a sequential
// executor (the denominator of every speedup in the paper's §5 Figure 5)
// and a global-lock executor. Neither instruments memory accesses; Atomic
// bodies run directly against simulated memory. The global-lock path is
// also the fallback of lock elision (internal/sle, §3.1).
package seq

import (
	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/tm"
)

// Mode selects the baseline flavor.
type Mode uint8

const (
	// Sequential runs Atomic bodies with no synchronization at all; it is
	// only meaningful on a single-processor machine.
	Sequential Mode = iota
	// GlobalLock serializes Atomic bodies behind one test-and-set lock
	// (with the lock word in simulated memory, so lock contention costs
	// coherence traffic).
	GlobalLock
)

// System implements tm.System for both baselines.
type System struct {
	m    *machine.Machine
	mode Mode

	lockAddr uint64
	locked   bool
	holder   int // processor holding (or last to hold) the lock, -1 if none
}

// SpinCycles is the poll interval while waiting for the global lock.
const SpinCycles = 30

// New builds a baseline executor.
func New(m *machine.Machine, mode Mode) *System {
	s := &System{m: m, mode: mode, holder: -1}
	if mode == GlobalLock {
		s.lockAddr = m.Mem.Sbrk(64)
	}
	return s
}

// Name implements tm.System.
func (s *System) Name() string {
	if s.mode == GlobalLock {
		return "global-lock"
	}
	return "sequential"
}

// Lock returns the global lock's word and the processor holding it, or
// that last held it (-1 if none has).
func (s *System) Lock() (addr uint64, holder int) { return s.lockAddr, s.holder }

// Exec implements tm.System.
func (s *System) Exec(p *machine.Proc) tm.Exec { return s.context(p) }

// Software returns p's path through the baseline as a tm.Driver's
// Software: Atomic without its TxLifeBegin, for a system whose
// transactions begin in hardware. It is bound to p's kept context, which
// Exec rewrites for each cell.
func (s *System) Software(p *machine.Proc) func(age uint64, body func(tm.Tx)) {
	return s.context(p).run
}

// context returns p's kept context (machine.ContextOf), rewritten for s.
func (s *System) context(p *machine.Proc) *exec {
	e, _ := machine.ContextOf[exec](p)
	*e = exec{NT: tm.NT{P: p}, s: s, onCommit: machine.Emptied(e.onCommit), undo: e.undo[:0]}
	return e
}

type exec struct {
	tm.NT    // plain non-transactional accesses
	s        *System
	onCommit []func()
	// undo holds the word each in-place store overwrote, in store order: a
	// host-side copy with no simulated charge, written back newest first
	// before an aborted body re-runs, so each word ends at the value it had
	// before the body ran.
	undo []stored
}

type stored struct{ addr, old uint64 }

var _ tm.Exec = (*exec)(nil)

// Atomic implements tm.Exec.
func (e *exec) Atomic(body func(tm.Tx)) {
	e.P.TxLifeBegin()
	e.run(0, body)
}

// run executes body to commit. Explicit aborts restart the body; Retry
// polls (there is nothing to coordinate a real sleep with).
func (e *exec) run(_ uint64, body func(tm.Tx)) {
	if e.s.mode == GlobalLock {
		e.acquire()
		defer e.release()
	}
	for {
		// Both baselines serialize rather than speculate, so every
		// attempt is a fallback-path attempt.
		e.P.TxLifeAttempt(machine.PathFallback)
		e.onCommit = e.onCommit[:0]
		e.undo = e.undo[:0]
		_, retry, aborted := tm.Catch(func() { body(directTx{e}) })
		if !aborted {
			e.P.TxLifeCommit(machine.PathFallback, true)
			for _, f := range e.onCommit {
				f()
			}
			return
		}
		for i := len(e.undo) - 1; i >= 0; i-- {
			e.s.m.Mem.Write64(e.undo[i].addr, e.undo[i].old)
		}
		if retry {
			e.P.TxLifeRetryWait()
			// Poll-based waiting: drop and re-take the lock so writers
			// can make progress.
			if e.s.mode == GlobalLock {
				e.release()
			}
			e.P.Elapse(cm.RetryPollCycles)
			if e.s.mode == GlobalLock {
				e.acquire()
			}
		} else {
			// Explicit abort is the only way a direct body unwinds.
			e.P.TxLifeAbort(machine.PathFallback, machine.AbortExplicit, true)
		}
	}
}

// acquire takes the global lock with a test-and-set loop. The
// read-check-set sequence is atomic because the simulation engine yields
// only at memory operations and the decision happens between them.
func (e *exec) acquire() {
	for {
		e.Load(e.s.lockAddr)
		if !e.s.locked {
			e.s.locked = true
			e.s.holder = e.P.ID()
			e.Store(e.s.lockAddr, 1)
			return
		}
		e.P.Elapse(SpinCycles)
	}
}

func (e *exec) release() {
	e.s.locked = false
	e.Store(e.s.lockAddr, 0)
}

// directTx runs body accesses straight against memory.
type directTx struct{ e *exec }

var _ tm.Tx = directTx{}

func (d directTx) Load(addr uint64) uint64 { return d.e.Load(addr) }
func (d directTx) OnCommit(f func())       { d.e.onCommit = append(d.e.onCommit, f) }

// Store implements tm.Tx: in place, noting the word it overwrites.
func (d directTx) Store(addr, val uint64) {
	d.e.undo = append(d.e.undo, stored{addr, d.e.s.m.Mem.Read64(addr)})
	d.e.Store(addr, val)
}

// Nested implements tm.Tx: the baselines flatten nesting, so an inner
// abort rolls back and restarts the whole body.
func (d directTx) Nested(body func()) bool {
	if tm.CatchNested(body) {
		tm.Unwind(0)
	}
	return true
}
func (d directTx) Abort()   { tm.Unwind(0) }
func (d directTx) Retry()   { tm.UnwindRetry() }
func (d directTx) Syscall() { d.e.P.Elapse(tm.SyscallCycles) }
