package ustm

import (
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
)

// exec adapts a Thread to the generic tm.Exec interface, providing the
// Atomic retry loop (with the paper's reissue-after-killer-retires
// policy) and the strong-atomicity treatment of non-transactional
// accesses.
type exec struct {
	t *Thread
}

var _ tm.Exec = (*exec)(nil)

// Proc implements tm.Exec.
func (e *exec) Proc() *machine.Proc { return e.t.p }

// Atomic implements tm.Exec: run body as a software transaction until it
// commits.
func (e *exec) Atomic(body func(tm.Tx)) {
	t := e.t
	age := t.stm.m.NextAge()
	t.p.TxLifeBegin(age)
	t.RunTx(age, body)
}

// RunTx runs body as one software transaction of the given age, retrying
// until commit. It is the hybrids' software path (tm.Driver.Software), so
// a failed-over transaction keeps the age it was assigned at its first
// hardware attempt (which is what makes software transactions "generally
// older").
func (t *Thread) RunTx(age uint64, body func(tm.Tx)) {
	// Lifecycle accounting: a strongly-atomic USTM is the hybrid's UFO
	// failover path; a weakly-atomic one is a plain software path.
	path := machine.PathSW
	if t.stm.cfg.StrongAtomicity {
		path = machine.PathUFO
	}
	for {
		t.p.TxLifeAttempt(path)
		t.Begin(age)
		reason, retry, aborted := tm.Catch(func() { body(t) })
		switch {
		case retry:
			// Woken from transactional waiting: release the read
			// ownership left, deliver the wake-ups we owe (early is safe:
			// retriers re-check) and retire; the loop re-executes.
			t.p.TxLifeRetryWait()
			t.releaseAll()
			t.WakeOwed()
			t.finish()
		case !aborted && t.End():
			t.p.TxLifeCommit(path, true)
			return
		default:
			// Aborted, or killed between the last barrier and End.
			if reason == machine.AbortNone {
				reason = machine.AbortConflict
			}
			t.Rollback()
			t.p.TxLifeAbort(path, reason, true)
			t.WaitForKiller()
		}
	}
}

// Load implements tm.Exec's non-transactional read. Under strong
// atomicity a UFO fault means a software transaction holds the line with
// write permission; the registered handler stalls until the protection is
// removed (or, for lines held only by retrying transactions, wakes them).
func (e *exec) Load(addr uint64) uint64 {
	return NTLoad(e.t.stm, e.t.p, addr)
}

// Store implements tm.Exec's non-transactional write.
func (e *exec) Store(addr, val uint64) {
	NTStore(e.t.stm, e.t.p, addr, val)
}

// NTLoad performs a non-transactional read with USTM's fault-handler
// policy. Shared by every system built on USTM.
func NTLoad(s *STM, p *machine.Proc, addr uint64) uint64 {
	for {
		v, out := p.NTRead(addr)
		switch out.Kind {
		case machine.OK:
			return v
		case machine.UFOFault:
			if handleNTFault(s, p, addr) {
				// Retrying owners hold at most read permission, so a
				// faulting read here is a leftover protection edge; the
				// data is stable and may be read under masked faults.
				p.SetUFOEnabled(false)
				v, out = p.NTRead(addr)
				p.SetUFOEnabled(true)
				if out.Kind != machine.OK {
					panic("ustm: masked nonT read failed: " + out.Kind.String())
				}
				return v
			}
		default:
			panic("ustm: unexpected non-transactional read outcome " + out.Kind.String())
		}
	}
}

// NTStore performs a non-transactional write with USTM's fault-handler
// policy.
func NTStore(s *STM, p *machine.Proc, addr, val uint64) {
	for {
		out := p.NTWrite(addr, val)
		switch out.Kind {
		case machine.OK:
			return
		case machine.UFOFault:
			if handleNTFault(s, p, addr) {
				// All owners were retrying: their ownership does not
				// isolate data, so complete the access with faults
				// masked, then let the sleepers re-check the world.
				p.SetUFOEnabled(false)
				if out := p.NTWrite(addr, val); out.Kind != machine.OK {
					panic("ustm: masked nonT write failed: " + out.Kind.String())
				}
				p.SetUFOEnabled(true)
				// Wake the line's owners now (wake passes over any that
				// is no longer retrying).
				if e := s.ot.find(mem.LineOf(addr)); e != nil {
					for _, o := range e.owners {
						o.wake(p)
					}
				}
				return
			}
		default:
			panic("ustm: unexpected non-transactional write outcome " + out.Kind.String())
		}
	}
}

// handleNTFault is the UFO fault handler the STM registers for
// non-transactional code (Section 4.2): by default it stalls the access
// until the conflicting transaction commits or aborts. It returns true
// when the line is held only by retrying transactions, in which case the
// caller may proceed under masked faults.
func handleNTFault(s *STM, p *machine.Proc, addr uint64) (allRetrying bool) {
	if s.retriers(mem.LineOf(addr)) != nil {
		return true
	}
	s.m.Count.NTStalls++
	p.Elapse(NTStallCycles)
	return false
}
