// Package unbounded implements the idealized unbounded hardware TM the
// paper compares against (§5): the BTM execution model with no
// footprint limit, flash abort, and a minimal abort handler that retries
// every transaction in hardware (resolving page faults and interrupts by
// re-execution). As in the paper, this is optimistic with respect to any
// buildable pure-HTM proposal; it serves as the performance ceiling.
//
// That handler is tm.Driver with no software path; this package supplies
// a Handler whose hardware attempts are unbounded, an abort table with
// nothing fatal in it, and a system call that costs SyscallCycles instead
// of an abort.
package unbounded

import (
	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/tm"
)

// Dispositions is the minimal abort handler: a page fault is resolved,
// and every other abort is retried in hardware after the backoff. With
// no software path nothing is fatal and nothing is counted.
var Dispositions = tm.Dispositions{
	machine.AbortOverflow:     tm.Transient,
	machine.AbortExplicit:     tm.Transient,
	machine.AbortInterrupt:    tm.Transient,
	machine.AbortConflict:     tm.Transient,
	machine.AbortException:    tm.Transient,
	machine.AbortSyscall:      tm.Transient,
	machine.AbortIO:           tm.Transient,
	machine.AbortPageFault:    tm.Fault,
	machine.AbortUFOKill:      tm.Transient,
	machine.AbortUFOFault:     tm.Transient,
	machine.AbortNonTConflict: tm.Transient,
	machine.AbortNesting:      tm.Transient,
}

// SyscallCycles is a system call inside a transaction, run in place.
const SyscallCycles = 10

// System is the unbounded HTM. It implements tm.System.
type System struct{ tm.Handler }

// New builds the system, backing off as kind says. It keeps no machine
// state of its own.
func New(_ *machine.Machine, kind cm.Kind) *System {
	s := &System{}
	s.Handler = tm.NewHandler("unbounded-htm", kind)
	s.On, s.Unbounded = Dispositions, true
	return s
}

// Exec implements tm.System. With no Software the driver retries in
// hardware until commit — the defining property (and hardware burden) of
// an unbounded HTM: a Retry request polls, and a transaction the policy
// declares starving takes the global token. Load and Store are plain
// accesses: a pure HTM installs no protection, and its strong atomicity
// comes from coherence.
func (s *System) Exec(p *machine.Proc) tm.Exec {
	e, fresh := machine.ContextOf[exec](p)
	if fresh {
		e.Tx = hwTx{e.HW()}
	}
	*e = exec{e.Rebind(p, &s.Handler)}
	return e
}

// exec is p's driver under a type of its own: p keeps a context per type.
type exec struct{ tm.Driver }

type hwTx struct{ tm.HW }

// Syscall is idealized as nearly free: the paper's unbounded HTM handles
// in-transaction system calls "much less gracefully" through abort-handler
// complexity, but its Figure 7 pure-HTM reference line is flat — the
// forced failovers do not apply to it.
func (h hwTx) Syscall() { h.D.P.Elapse(SyscallCycles) }
