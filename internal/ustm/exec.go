package ustm

import (
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
)

// exec adapts a Thread to the generic tm.Exec interface: a driver with
// the Thread as its software path and no Handler (the Thread's tails
// replace the contention manager), and strongly-atomic NT accesses.
type exec struct {
	tm.Driver
	t *Thread
}

// Load implements tm.Exec's non-transactional read.
func (e *exec) Load(addr uint64) uint64 { return ntAccess(e.t.stm, e.t.p, addr, false, 0) }

// Store implements tm.Exec's non-transactional write.
func (e *exec) Store(addr, val uint64) { ntAccess(e.t.stm, e.t.p, addr, true, val) }

// NTLoad performs a non-transactional read with USTM's fault-handler
// policy. Shared by every system built on USTM.
func NTLoad(s *STM, p *machine.Proc, addr uint64) uint64 { return ntAccess(s, p, addr, false, 0) }

// NTStore performs a non-transactional write with USTM's fault-handler
// policy.
func NTStore(s *STM, p *machine.Proc, addr, val uint64) { ntAccess(s, p, addr, true, val) }

// ntAccess is a non-transactional load or store under strong atomicity.
// A UFO fault means a software transaction owns the line; the registered
// handler stalls until the protection is removed, or, for a line owned
// only by retrying transactions, completes the access masked.
func ntAccess(s *STM, p *machine.Proc, addr uint64, write bool, val uint64) uint64 {
	for {
		v, out := p.NTAccess(addr, write, val)
		switch out.Kind {
		case machine.OK:
			return v
		case machine.UFOFault:
			if handleNTFault(s, p, addr) {
				// All owners were retrying: their ownership does not
				// isolate data (a retrier holds at most read permission),
				// so complete the access with faults masked.
				p.SetUFOEnabled(false)
				v, out = p.NTAccess(addr, write, val)
				p.SetUFOEnabled(true)
				if out.Kind != machine.OK {
					panic("ustm: masked non-transactional access failed: " + out.Kind.String())
				}
				if write {
					// A store wakes the line's owners now, to re-check the
					// world (wake passes over any no longer retrying).
					if e := s.ot.find(mem.LineOf(addr)); e != nil {
						for _, o := range e.owners {
							o.wake(p)
						}
					}
				}
				return v
			}
		default:
			panic("ustm: unexpected non-transactional access outcome " + out.Kind.String())
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
