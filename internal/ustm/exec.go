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
