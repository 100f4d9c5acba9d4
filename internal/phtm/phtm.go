// Package phtm implements the PhTM baseline (Lev et al., as modeled in
// the paper's §5): a phased hybrid that never runs hardware and
// software transactions concurrently. Hardware transactions read a global
// count of in-flight software transactions transactionally at begin; any
// transaction that must run in software flips the whole system into an
// STM phase, dragging every concurrent hardware transaction along with it
// — the pathology the paper's vacation results expose.
//
// Two counters implement the phases, both in simulated memory:
//
//   - numSTM: software transactions currently executing. Hardware
//     transactions read it (transactionally) at begin and abort if it is
//     non-zero; updates to it kill in-flight hardware readers via
//     coherence (the "nonT conflicts on the counter" of Figure 6).
//   - numMustSTM: in-flight transactions that failed over for a condition
//     hardware cannot run (overflow, syscall, ...). While non-zero, new
//     transactions start directly in software; once it drains, waiting
//     transactions stall until numSTM reaches zero, then resume in
//     hardware.
//
// The retry structure is tm.Driver; this package supplies the phase
// logic around it: the check before every hardware attempt (the driver's
// Gate), the transactional read of numSTM that begins one, and a
// software path that maintains both counters around weakly-atomic USTM.
package phtm

import (
	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/tm"
	"repro/internal/ustm"
)

// Dispositions is PhTM's abort handler: the UFO hybrid's fatal set
// (entering an STM phase is its failover), nothing counted. The counter
// kill arrives as a nonT conflict and is retried; the phase checks at the
// gate decide the mode of the next attempt.
var Dispositions = tm.Dispositions{
	machine.AbortOverflow:     tm.Fatal,
	machine.AbortExplicit:     tm.Fatal,
	machine.AbortInterrupt:    tm.Transient,
	machine.AbortConflict:     tm.Transient,
	machine.AbortException:    tm.Fatal,
	machine.AbortSyscall:      tm.Fatal,
	machine.AbortIO:           tm.Fatal,
	machine.AbortPageFault:    tm.Fault,
	machine.AbortUFOKill:      tm.Transient,
	machine.AbortUFOFault:     tm.Transient,
	machine.AbortNonTConflict: tm.Transient,
	machine.AbortNesting:      tm.Fatal,
}

// PhasePollCycles is the stall interval while waiting for an STM phase
// to drain.
const PhasePollCycles = 60

// System implements tm.System.
type System struct {
	tm.Handler
	stm *ustm.STM

	numSTMAddr     uint64
	numMustSTMAddr uint64
	numSTM         int
	numMustSTM     int
	// lastSTMProc is the processor that most recently entered the STM
	// phase (-1 before any has): the party phase aborts are attributed to.
	lastSTMProc int
}

// New builds a PhTM over the machine, backing off as kind says. The
// embedded USTM is weakly atomic (PhTM's phase exclusion replaces conflict
// detection between modes).
func New(m *machine.Machine, cfg ustm.Config, kind cm.Kind) *System {
	cfg.StrongAtomicity = false
	s := &System{
		stm:            ustm.New(m, cfg),
		numSTMAddr:     m.Mem.Sbrk(64),
		numMustSTMAddr: m.Mem.Sbrk(64),
		lastSTMProc:    -1,
	}
	s.Handler = tm.NewHandler("phtm", kind)
	s.On, s.RetryReason = Dispositions, machine.AbortExplicit
	return s
}

// Exec implements tm.System. Hardware accesses are the driver's
// uninstrumented ones (phase exclusion replaces barriers), and PhTM is
// weakly atomic.
func (s *System) Exec(p *machine.Proc) tm.Exec {
	e, fresh := machine.ContextOf[exec](p)
	if fresh {
		e.Driver = tm.Driver{Tx: e.HW(), Gate: e.startInSoftware, Begin: e.subscribe, Software: e.runSW}
	}
	*e = exec{Driver: e.Rebind(p, &s.Handler), s: s, t: s.stm.Thread(p)}
	return e
}

type exec struct {
	tm.Driver
	s *System
	t *ustm.Thread
	// must marks a transaction hardware cannot run: it holds the system in
	// the STM phase until it completes. A transaction that merely started
	// in software because a phase was in force does not.
	must bool
}

// counter updates: the Go-side integer is authoritative; the simulated
// write provides the timing and — critically — the coherence kill of
// hardware transactions that read the counter transactionally.
func (e *exec) bumpSTM(d int) {
	e.s.numSTM += d
	if d > 0 {
		e.s.lastSTMProc = e.P.ID()
	}
	e.Store(e.s.numSTMAddr, uint64(e.s.numSTM))
}

func (e *exec) bumpMustSTM(d int) {
	e.s.numMustSTM += d
	e.Store(e.s.numMustSTMAddr, uint64(e.s.numMustSTM))
}

// startInSoftware is the phase check before every hardware attempt.
func (e *exec) startInSoftware() bool {
	for e.s.numMustSTM == 0 {
		if e.s.numSTM == 0 {
			// Whatever sends this transaction to software from here on is
			// a condition hardware cannot run, or starvation — for which a
			// must-STM phase is PhTM's serialization mechanism.
			e.must = true
			return false
		}
		// Phase shifting back toward hardware: stall rather than add
		// more software transactions.
		e.P.Elapse(PhasePollCycles)
	}
	// An STM phase is in force: start directly in software.
	e.must = false
	return true
}

// subscribe reads the software-transaction count transactionally: if any
// software transaction starts before the attempt commits, the counter
// update kills it (nonT conflict). Software transactions already in
// flight abort it here — attributed to the processor that last entered
// the phase — and the transaction goes back to the phase checks (stall,
// or start in software, as they dictate) rather than failing over.
func (e *exec) subscribe() {
	hw := e.HW()
	if hw.Load(e.s.numSTMAddr) != 0 {
		e.RetryNow()
		hw.AbortBy(machine.AbortExplicit, e.s.lastSTMProc, e.s.numSTMAddr)
	}
}

// runSW executes the transaction in the STM, maintaining the phase
// counters.
func (e *exec) runSW(age uint64, body func(tm.Tx)) {
	must := e.must
	e.bumpSTM(1)
	if must {
		e.bumpMustSTM(1)
	}
	e.t.RunTx(age, body)
	if must {
		e.bumpMustSTM(-1)
	}
	e.bumpSTM(-1)
}
