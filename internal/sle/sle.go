// Package sle implements speculative lock elision on top of BTM — the
// paper's point that its hardware-atomicity primitive is useful beyond
// transactional memory (§3.1, citing Rajwar/Goodman): lock-based
// critical sections execute as hardware transactions that merely *read*
// the lock word, so disjoint critical sections under the same lock run
// concurrently; on repeated aborts the lock is acquired for real.
//
// Every Atomic is a critical section under one global lock. The retry
// structure is tm.Driver; this package supplies the read of the lock word
// that begins every hardware attempt, an abort table that counts every
// reason against Attempts, and seq's global-lock path as the software
// path. Taking the lock writes its word, which aborts every concurrent
// elider (their speculative read of the word conflicts): that is SLE's
// correctness argument. Non-transactional accesses are plain, so a
// reader outside the lock can see a lock holder's stores in place.
package sle

import (
	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/seq"
	"repro/internal/tm"
)

// Attempts is how many hardware attempts precede taking the lock.
const Attempts = 3

// Dispositions is SLE's abort handler: whatever aborted the attempt, it
// is retried after the backoff until the Attempts-th, which takes the
// lock. A Retry request aborts explicitly and is counted with the rest.
var Dispositions = func() (d tm.Dispositions) {
	for r := machine.AbortNone + 1; int(r) < machine.NumAbortReasons; r++ {
		d[r] = tm.Counted
	}
	return d
}()

// System implements tm.System.
type System struct {
	tm.Handler
	lock *seq.System
}

// New builds lock elision over the machine, backing off as kind says.
func New(m *machine.Machine, kind cm.Kind) *System {
	s := &System{lock: seq.New(m, seq.GlobalLock)}
	// Hardware commits are elided critical sections, software commits
	// are ones that took the lock.
	s.Handler = tm.NewHandler("sle", kind)
	s.On, s.Limit, s.RetryReason = Dispositions, Attempts, machine.AbortExplicit
	return s
}

// Exec implements tm.System.
func (s *System) Exec(p *machine.Proc) tm.Exec {
	s.lock.Exec(p) // rewrites the context the lock path is bound to
	e, fresh := machine.ContextOf[exec](p)
	if fresh {
		e.Tx, e.Begin, e.Software = e.HW(), e.elide, s.lock.Software(p)
	}
	*e = exec{Driver: e.Rebind(p, &s.Handler), s: s}
	return e
}

// exec is one processor's lock-elision context.
type exec struct {
	tm.Driver
	s *System
}

// elide begins every hardware attempt. The lock must be free, and its
// word joins the read set, so a real acquisition kills this attempt. A
// held lock aborts it, attributed to the holder.
func (e *exec) elide() {
	addr, holder := e.s.lock.Lock()
	if e.HW().Load(addr) != 0 {
		e.HW().AbortBy(machine.AbortExplicit, holder, addr)
	}
}
