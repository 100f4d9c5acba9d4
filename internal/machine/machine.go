// Package machine composes the simulation engine, simulated memory, and
// cache models into the multiprocessor that every TM system in this
// repository runs on. It implements the two hardware primitives of the
// paper at the architectural level:
//
//   - the transactional-execution substrate used by BTM and the unbounded
//     HTM: speculative-read/-write bits beside each line's coherence
//     state in the directory, a per-processor speculative store buffer,
//     coherence-based eager conflict detection with
//     age-ordered NACK/abort resolution, and L1-occupancy-driven overflow
//     detection; and
//
//   - UFO, user-mode fine-grained memory protection: per-line
//     fault-on-read/fault-on-write bits (stored in package mem) whose
//     modification requires exclusive coherence permission — which is the
//     mechanism by which software transactions kill conflicting hardware
//     transactions.
//
// Higher layers (internal/tm, internal/ustm, internal/core, ...) express
// TM policy; this package only provides mechanism, following the paper's
// "primitives, not solutions" philosophy.
//
// Paper: §3 (the two primitives) and §4 (how the hybrid composes them).
package machine

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// AbortReason enumerates why a hardware transaction aborted, mirroring the
// BTM status register of Table 1 plus the UFO-interaction reasons the
// paper's Figure 6 reports.
type AbortReason uint8

const (
	// AbortNone means no abort is pending.
	AbortNone AbortReason = iota
	// AbortOverflow: a transactional line was evicted from the L1 set.
	AbortOverflow
	// AbortExplicit: software executed btm_abort.
	AbortExplicit
	// AbortInterrupt: a timer interrupt arrived mid-transaction.
	AbortInterrupt
	// AbortConflict: lost an age-ordered conflict with another HW transaction.
	AbortConflict
	// AbortException: the transaction raised a non-page-fault exception.
	AbortException
	// AbortSyscall: the transaction invoked a system call.
	AbortSyscall
	// AbortIO: the transaction performed I/O.
	AbortIO
	// AbortPageFault: the transaction touched an unmapped page (recoverable).
	AbortPageFault
	// AbortUFOKill: killed by another thread's set_ufo_bits needing
	// exclusive permission on a line in this transaction's footprint.
	AbortUFOKill
	// AbortUFOFault: the transaction accessed a UFO-protected line and the
	// policy chose to abort rather than stall.
	AbortUFOFault
	// AbortNonTConflict: a non-transactional access conflicted with this
	// transaction's footprint (HTM strong atomicity).
	AbortNonTConflict
	// AbortNesting: hardware nesting depth exceeded.
	AbortNesting

	numAbortReasons
)

var abortNames = [numAbortReasons]string{
	"none", "overflow", "explicit", "interrupt", "conflict", "exception",
	"syscall", "io", "page-fault", "ufo-kill", "ufo-fault", "nonT-conflict",
	"nesting",
}

// String returns the abort-reason name used in reports and traces.
func (r AbortReason) String() string {
	if int(r) < len(abortNames) {
		return abortNames[r]
	}
	return fmt.Sprintf("AbortReason(%d)", uint8(r))
}

// AbortReasonByName maps a report name back to its AbortReason; unknown
// names give AbortNone (which no real abort carries) and ok false.
func AbortReasonByName(name string) (AbortReason, bool) {
	for i, n := range abortNames {
		if n == name {
			return AbortReason(i), true
		}
	}
	return AbortNone, false
}

// NumAbortReasons is the size of per-reason counter arrays.
const NumAbortReasons = int(numAbortReasons)

// OutcomeKind classifies the result of a memory operation.
type OutcomeKind uint8

const (
	// OK: the operation completed.
	OK OutcomeKind = iota
	// Nacked: the requester lost an age-ordered conflict and must back off
	// and retry (the paper's 20-cycle NACK).
	Nacked
	// UFOFault: the access hit a UFO-protected line with faults enabled;
	// the access did not complete.
	UFOFault
	// HWAborted: the processor's own hardware transaction has (or had) a
	// pending abort; the operation did not complete and the transaction
	// state is already flash-cleared.
	HWAborted
)

// String returns the outcome-kind name used in reports and traces.
func (k OutcomeKind) String() string {
	switch k {
	case OK:
		return "ok"
	case Nacked:
		return "nacked"
	case UFOFault:
		return "ufo-fault"
	case HWAborted:
		return "hw-aborted"
	}
	return fmt.Sprintf("OutcomeKind(%d)", uint8(k))
}

// Outcome is the result of a memory operation.
type Outcome struct {
	Kind   OutcomeKind
	Reason AbortReason // valid when Kind == HWAborted
}

var okOutcome = Outcome{Kind: OK}

// ContentionPolicy selects how conflicting hardware transactions are
// resolved (the Figure 8 sensitivity axis).
type ContentionPolicy uint8

const (
	// AgeOrdered is the paper's policy: an older requester aborts the
	// owner; a younger requester is NACKed and retries.
	AgeOrdered ContentionPolicy = iota
	// RequesterWins always aborts the current owner (the naive policy the
	// paper shows performs like an STM under contention).
	RequesterWins
)

// Params is what varies between machines (Table 4's latencies are the
// constants beside charge). Together with the workloads it fully
// determines a run: same Params, same seed, same results, bit-identical
// under either scheduler.
type Params struct {
	Procs   int
	L1Bytes int
	L1Ways  int

	Quantum  uint64
	MemBytes uint64
	MaxSteps uint64
	Seed     uint64

	// ReferenceScheduler runs the machine on the engine's retained
	// reference scheduler instead of the run-ahead fast path (sim.Config.
	// Reference). Simulated results are bit-identical; differential tests
	// use it to pin the fast path to the specification.
	ReferenceScheduler bool

	HWPolicy ContentionPolicy
	// TrueConflictUFOKills enables the Figure 8 limit study: set_ufo_bits
	// only aborts hardware transactions whose footprint truly conflicts
	// with the protection being installed.
	TrueConflictUFOKills bool
	// OwnerStateUFO enables the paper's first proposed mitigation for
	// UFO/BTM false conflicts: installing fault-on-write protection in
	// the coherence owner state, without invalidating (or killing)
	// read-only sharers.
	OwnerStateUFO bool
	// LazyUFOClear enables the second proposed mitigation: protection
	// downgrades (clears) take effect without eagerly invalidating other
	// copies, so releasing read-mostly data kills no hardware readers.
	LazyUFOClear bool
}

// DefaultParams returns the baseline configuration used throughout the
// evaluation, seeded so that runs are reproducible out of the box.
func DefaultParams(procs int) Params {
	return Params{
		Procs:    procs,
		L1Bytes:  32 * 1024,
		L1Ways:   4,
		Quantum:  200_000,
		MemBytes: 1 << 24,
		Seed:     1,
	}
}

// TxPath classifies the execution mode of one transaction attempt for
// lifecycle accounting: the hardware fast path, the strongly-atomic
// software path (UFO-protected USTM), the weakly-atomic software path,
// or a serialized fallback (token holder, global lock, SLE real lock).
type TxPath uint8

// The attempt paths.
const (
	// PathHTM: a hardware (BTM / unbounded / elided) attempt.
	PathHTM TxPath = iota
	// PathUFO: a software attempt under UFO strong atomicity (§4).
	PathUFO
	// PathSW: a weakly-atomic software attempt (USTM without UFO, TL2,
	// the HyTM/PhTM software halves).
	PathSW
	// PathFallback: a serialized attempt — commit-token holder, global
	// lock, or SLE's real lock acquisition.
	PathFallback
	// NumTxPaths sizes per-path arrays.
	NumTxPaths = iota
)

var txPathNames = []string{"htm", "ufo", "sw", "fallback"}

// String returns the path name used in reports and trace exports.
func (p TxPath) String() string {
	if int(p) < len(txPathNames) {
		return txPathNames[p]
	}
	return fmt.Sprintf("TxPath(%d)", uint8(p))
}

// TxPathByName maps a report name back to its TxPath; ok is false for
// unknown names.
func TxPathByName(name string) (TxPath, bool) {
	for i, n := range txPathNames {
		if n == name {
			return TxPath(i), true
		}
	}
	return 0, false
}

// Counters aggregates machine-level event counts.
type Counters struct {
	HWAbortsByReason [NumAbortReasons]uint64
	Nacks            uint64
	UFOKillsTrue     uint64
	UFOKillsFalse    uint64
	UFOFaults        uint64
	ConflictSTMOlder uint64 // STM-vs-HTM conflicts where the STM tx was older
	ConflictHTMOlder uint64
	// Footprint histograms of committed transactions (distinct lines).
	HWFootprint obs.Histogram
	SWFootprint obs.Histogram

	// The transaction lifecycle's tally. The TxLife* emitters (txlife.go)
	// are its only writers, so every view of a run's transactions — tm.*,
	// machine.hw_commits, txstats, contention — reads one count.
	Begun          uint64
	AttemptsByPath [NumTxPaths]uint64
	CommitsByPath  [NumTxPaths]uint64
	HWCommits      uint64 // commits whose committing attempt ran in hardware
	SWCommits      uint64
	Aborts         [NumTxPaths][NumAbortReasons]uint64
	SWAborts       uint64 // aborts of software attempts
	RetryWaits     uint64

	// Decisions rather than lifecycle events, each counted where the TM
	// system makes it: a transaction sent from hardware to software, a
	// hardware re-execution after a recoverable abort, a software
	// transaction stalled for an older conflictor, a non-transactional
	// access stalled on a UFO fault.
	Failovers uint64
	HWRetries uint64
	SWStalls  uint64
	NTStalls  uint64
}

// Machine is the simulated multiprocessor. Its shared state (memory,
// directory, counters, observers, age sequence) is mutated only from
// Proc methods, which the engine serializes in (cycle, proc id) order:
// one processor holds the execution token at a time, so none of it
// needs locking.
type Machine struct {
	Params
	Eng   *sim.Engine
	Mem   *mem.Memory
	Count Counters

	arena *Arena
	dir   *cache.Directory
	procs []*Proc
	work  []func(*Proc) // Run's workloads, one per processor
	txSeq uint64
	out   observers // everything that watches a run (trace.go)
}

// New builds a machine from params on an arena of its own. All state
// derives from params (every Proc.Rand from params.Seed), so equal
// Params build machines whose runs are deterministic replicas of each
// other.
func New(p Params) *Machine { return new(Arena).New(p) }

// New builds a machine from params over the arena's storage. What an
// earlier, released machine left in the arena changes what New
// allocates and nothing else: the machine is the one machine.New(p)
// builds.
func (a *Arena) New(p Params) *Machine {
	if p.Procs <= 0 {
		panic("machine: Procs must be positive")
	}
	if p.Procs > cache.MaxProcs {
		panic(fmt.Sprintf("machine: Procs %d exceeds the directory's %d-processor limit", p.Procs, cache.MaxProcs))
	}
	if a.mem == nil {
		a.mem, a.dir = mem.New(p.MemBytes), cache.NewDirectory()
	} else {
		a.mem.Reset(p.MemBytes)
	}
	a.dir.Reset(p.Procs)
	a.eng.Reset(sim.Config{
		Procs:     p.Procs,
		Quantum:   p.Quantum,
		MaxSteps:  p.MaxSteps,
		Reference: p.ReferenceScheduler,
	})
	a.grow(p.Procs)
	m := &Machine{
		Params: p,
		Eng:    &a.eng,
		Mem:    a.mem,
		arena:  a,
		dir:    a.dir,
		procs:  a.procs[:p.Procs:p.Procs],
	}
	// Reserve the first page so fixed low addresses used by small tests
	// and examples never collide with Sbrk-allocated metadata (otables,
	// lock tables, heaps).
	m.Mem.Sbrk(mem.PageBytes)
	// Every field of a kept processor is rewritten: only its L1 (when the
	// geometry matches), its transaction buffer, its bound hook and its TM
	// contexts carry over, and its random stream is reseeded. The L1s
	// that do not carry over are built in one call.
	fits := func(c *cache.L1) bool {
		return c != nil && c.Ways() == p.L1Ways && c.Sets()*c.Ways()*mem.LineBytes == p.L1Bytes
	}
	missing := 0
	for _, mp := range m.procs {
		if !fits(mp.l1) {
			missing++
		}
	}
	l1s := cache.NewL1s(missing, p.L1Bytes, mem.LineBytes, p.L1Ways)
	for i, mp := range m.procs {
		l1 := mp.l1
		if !fits(l1) {
			l1, l1s = &l1s[0], l1s[1:]
		}
		*mp = Proc{
			m:      m,
			sp:     a.eng.Proc(i),
			l1:     l1,
			ufo:    true, // threads start with UFO faults enabled
			hwBuf:  mp.hwBuf,
			rng:    *sim.NewRand(p.Seed*2654435761 + uint64(i) + 1),
			tick:   mp.tick,
			ctxs:   mp.ctxs,
			ctxBuf: mp.ctxBuf,
		}
		mp.sp.OnInterrupt(mp.tick)
	}
	return m
}

// Procs returns the machine's processors in ID order. The slice is
// fixed at construction.
func (m *Machine) Procs() []*Proc { return m.procs }

// Proc returns processor id. The mapping is fixed at construction.
func (m *Machine) Proc(id int) *Proc { return m.procs[id] }

// NextAge returns a fresh, globally ordered transaction age (smaller is
// older). Both HW and SW transactions draw from the same sequence so that
// cross-system age comparisons are meaningful. Call it from a running
// processor: the draw order is the schedule order.
func (m *Machine) NextAge() uint64 {
	m.txSeq++
	return m.txSeq
}

// Run executes one workload per processor to completion under the
// scheduler Params selected; the observable result is identical for
// both. Run itself must not be called concurrently.
func (m *Machine) Run(workloads []func(*Proc)) {
	if len(workloads) != len(m.procs) {
		panic(fmt.Sprintf("machine: %d workloads for %d processors", len(workloads), len(m.procs)))
	}
	m.work = workloads
	m.Eng.Run(m.arena.bodies[:len(m.procs)])
}

// Cycles returns the simulated duration so far. Like sim.Engine.Now,
// call it between runs or from a running processor.
func (m *Machine) Cycles() uint64 { return m.Eng.Now() }

// CheckConsistency validates the machine's internal invariants: the
// directory and the per-processor L1s agree exactly, a processor's SR/SW
// bit is set on exactly the lines its live, un-killed transaction lists,
// and speculative values only exist on lines that transaction has
// written. Tests call this after (and during) stress runs; it is not
// part of the simulated semantics. Call it between runs, or mid-run from
// a running processor.
func (m *Machine) CheckConsistency() error {
	// Every L1-resident line is registered in the directory...
	for _, p := range m.procs {
		for _, line := range p.l1.Lines() {
			if !m.dir.HeldBy(line, p.ID()) {
				return fmt.Errorf("machine: proc %d caches line %d but the directory disagrees", p.ID(), line)
			}
		}
	}
	// ...and every directory entry is backed by a resident line.
	var err error
	bits := make([]int, len(m.procs)) // SR plus SW bits found, per processor
	m.dir.ForEach(func(line uint64, rec cache.Line) {
		sharers := rec.Sharers()
		for i := sharers.Next(0); i >= 0 && err == nil; i = sharers.Next(i + 1) {
			if !m.procs[i].l1.Contains(line) {
				err = fmt.Errorf("machine: directory lists proc %d for line %d but its L1 disagrees", i, line)
			}
		}
		for _, set := range [2]cache.ProcSet{rec.Readers(), rec.Writers()} {
			for i := set.Next(0); i >= 0; i = set.Next(i + 1) {
				bits[i]++
			}
		}
	})
	if err != nil {
		return err
	}
	// A processor's bits are exactly the lines its live, un-killed
	// transaction lists: each listed once and marked, and no bit beyond.
	for _, p := range m.procs {
		t, listed := p.hwBuf, 0
		if t != nil {
			if (p.hw == nil || t.pendingAbort != AbortNone) && len(t.reads)+len(t.writes)+t.Spec.Len() != 0 {
				return fmt.Errorf("machine: proc %d keeps speculative state with no live transaction", p.ID())
			}
			if err := listedOnce(t.reads, t.Reads); err != nil {
				return fmt.Errorf("machine: proc %d read set: %v", p.ID(), err)
			}
			if err := listedOnce(t.writes, t.Writes); err != nil {
				return fmt.Errorf("machine: proc %d write set: %v", p.ID(), err)
			}
			t.Spec.Words(func(addr, _ uint64) {
				if !t.Writes(mem.LineOf(addr)) {
					err = fmt.Errorf("machine: proc %d has speculative data at %#x outside its write set", p.ID(), addr)
				}
			})
			if err != nil {
				return err
			}
			listed = len(t.reads) + len(t.writes)
		}
		if bits[p.ID()] != listed {
			return fmt.Errorf("machine: the directory carries %d SR/SW bits for proc %d, whose transaction lists %d lines", bits[p.ID()], p.ID(), listed)
		}
	}
	return nil
}

// listedOnce checks that no line is on list twice and that marked holds
// for every line on it.
func listedOnce(list []uint64, marked func(uint64) bool) error {
	sorted := slices.Clone(list)
	slices.Sort(sorted)
	for i, l := range sorted {
		if i > 0 && l == sorted[i-1] || !marked(l) {
			return fmt.Errorf("line %d is listed twice or its bit is clear", l)
		}
	}
	return nil
}
