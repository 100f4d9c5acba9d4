// Package tm defines the system-agnostic transactional-memory interfaces
// that every TM implementation in this repository (the UFO hybrid, HyTM,
// PhTM, USTM, TL2, the unbounded HTM, lock elision, and the
// sequential/lock baselines) provides, and that every workload is written
// against. Keeping workloads generic over tm.System is what lets the
// harness reproduce the paper's cross-system comparisons from a single
// workload implementation.
//
// It also holds the one transaction driver those implementations share
// (driver.go): the hardware-first loop of Figure 4 with Algorithm 3's
// abort handler as a per-system table, BTM's instructions under it, and
// the retry-until-commit loop of the paths with no fallback. A system
// built on it embeds a Handler — its name, contention manager and
// table — and supplies a few hooks; see DESIGN.md §11.
//
// Paper: §2 (programming interface and atomicity semantics), §3.1 (BTM,
// Table 1), §4.3
// (Figure 4, Algorithm 3) and §6 (the retry waiting primitive).
package tm

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/obs"
)

// Tx is the handle a transaction body uses for its shared-memory accesses.
// Bodies must route every access to shared simulated memory through Load
// and Store, keep all other state local, and be safe to re-execute: the TM
// runtime re-runs the body after an abort, which is the software analogue
// of the hardware register checkpoint.
type Tx interface {
	// Load returns the 64-bit word at addr within the transaction.
	Load(addr uint64) uint64
	// Store writes the word at addr within the transaction.
	Store(addr, val uint64)
	// Abort explicitly aborts the transaction; it will be re-executed
	// (in software, for hybrid systems, mirroring the paper's translation
	// of explicit aborts into failover).
	Abort()
	// Retry implements transactional waiting (Section 6 of the paper):
	// the transaction's effects are undone and it is descheduled until
	// another transaction commits an update to something it read, then
	// re-executed.
	Retry()
	// Syscall marks an idempotent system call. Hardware transactions
	// cannot contain system calls and abort to software; software
	// transactions proceed.
	Syscall()
	// OnCommit registers f to run exactly once, immediately after this
	// transaction commits; registrations from aborted attempts are
	// discarded. This is the deferral mechanism for side-effecting
	// operations (Section 6): buffer the output inside the transaction,
	// perform it once the transaction is durable.
	OnCommit(f func())
	// Nested runs body as a closed nested transaction and reports whether
	// it committed. Inside body, Abort aborts only the innermost nest
	// where the TM supports partial rollback (USTM; TL2 and NOrec through
	// Lazy); hardware transactions flatten nesting (as BTM does), so an
	// inner abort aborts the whole transaction there — under the hybrid
	// that means failing over to software, where partial abort works. An
	// aborted nest undoes its stores only: what it read stays in the
	// transaction's read set, since the caller acts on the result. This is
	// another instance of the paper's extensibility argument: richer
	// semantics live in the STM, and hardware accelerates the subset it
	// can.
	Nested(body func()) bool
}

// nestedAbortSignal unwinds to the innermost Nested boundary.
type nestedAbortSignal struct{}

// UnwindNested aborts the innermost nested transaction. TM
// implementations call this from Abort when a nest is active and partial
// rollback is supported.
func UnwindNested() {
	panic(nestedAbortSignal{})
}

// CatchNested runs body, converting an UnwindNested panic into
// aborted=true. Other panics (including whole-transaction unwinds)
// propagate.
func CatchNested(body func()) (aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(nestedAbortSignal); ok {
				aborted = true
				return
			}
			panic(r)
		}
	}()
	body()
	return false
}

// Exec is the per-simulated-thread execution context.
type Exec interface {
	// Atomic runs body as one transaction, retrying until it commits.
	Atomic(body func(Tx))
	// Load performs a non-transactional read. Under strongly atomic
	// systems this may stall on a UFO fault until the conflicting
	// software transaction completes.
	Load(addr uint64) uint64
	// Store performs a non-transactional write, with the same strong
	// atomicity behaviour as Load.
	Store(addr, val uint64)
	// Proc exposes the underlying simulated processor (for timing and
	// workload-local randomness).
	Proc() *machine.Proc
}

// System is a transactional memory implementation bound to one machine.
type System interface {
	// Name identifies the system in reports ("ufo-hybrid", "hytm", ...).
	Name() string
	// Exec returns the execution context for one simulated processor.
	// It must be called at most once per processor.
	Exec(p *machine.Proc) Exec
}

// Stats is what a run reports of its transactions: a copy of the
// machine's lifecycle tally and decision counts, taken by StatsOf once
// the run is over. Each field is the machine.Counters field of its name,
// but Retries, which is RetryWaits.
type Stats struct {
	HWCommits uint64
	SWCommits uint64
	Failovers uint64
	SWAborts  uint64
	SWStalls  uint64
	NTStalls  uint64
	Retries   uint64
	HWRetries uint64
}

// StatsOf reads a run's Stats from its machine's counters.
func StatsOf(c *machine.Counters) Stats {
	return Stats{
		HWCommits: c.HWCommits,
		SWCommits: c.SWCommits,
		Failovers: c.Failovers,
		SWAborts:  c.SWAborts,
		SWStalls:  c.SWStalls,
		NTStalls:  c.NTStalls,
		Retries:   c.RetryWaits,
		HWRetries: c.HWRetries,
	}
}

// Commits returns total committed transactions.
func (s *Stats) Commits() uint64 { return s.HWCommits + s.SWCommits }

// Metric names written by Register. OBSERVABILITY.md carries the full
// field → metric cross-reference table.
const (
	MetricHWCommits = "tm.hw_commits"
	MetricSWCommits = "tm.sw_commits"
	MetricFailovers = "tm.failovers"
	MetricSWAborts  = "tm.sw_aborts"
	MetricSWStalls  = "tm.sw_stalls"
	MetricNTStalls  = "tm.nt_stalls"
	MetricRetries   = "tm.retries"
	MetricHWRetries = "tm.hw_retries"
)

// Register writes the counts into snap under the stable tm.* metric
// names (see OBSERVABILITY.md for the schema).
func (s *Stats) Register(snap *obs.Snapshot) {
	snap.AddCounter(MetricHWCommits, "transactions", "transactions committed in hardware (Figure 5)", s.HWCommits)
	snap.AddCounter(MetricSWCommits, "transactions", "transactions committed in software (Figure 5)", s.SWCommits)
	snap.AddCounter(MetricFailovers, "transactions", "hardware-to-software failovers (Figure 7)", s.Failovers)
	snap.AddCounter(MetricSWAborts, "aborts", "software-transaction conflict kills", s.SWAborts)
	snap.AddCounter(MetricSWStalls, "events", "software-transaction stalls for an older conflictor", s.SWStalls)
	snap.AddCounter(MetricNTStalls, "events", "non-transactional accesses stalled on a UFO fault (Section 4.2)", s.NTStalls)
	snap.AddCounter(MetricRetries, "events", "Retry (transactional waiting) suspensions (Section 6)", s.Retries)
	snap.AddCounter(MetricHWRetries, "events", "hardware re-executions after a recoverable abort", s.HWRetries)
}

func (s *Stats) String() string {
	return fmt.Sprintf("hw=%d sw=%d failover=%d hwRetry=%d swAbort=%d stall=%d ntStall=%d retry=%d",
		s.HWCommits, s.SWCommits, s.Failovers, s.HWRetries, s.SWAborts, s.SWStalls, s.NTStalls, s.Retries)
}

// unwindSignal is the panic value used to unwind a transaction body back
// to its Atomic wrapper. It never escapes this module's Atomic
// implementations.
type unwindSignal struct {
	reason machine.AbortReason
	retry  bool
}

// unwindSignals holds every signal already boxed, so that unwinding does
// not allocate: one per abort reason, and the Retry request last.
var unwindSignals = func() (sig [machine.NumAbortReasons + 1]any) {
	for r := range sig[:machine.NumAbortReasons] {
		sig[r] = unwindSignal{reason: machine.AbortReason(r)}
	}
	sig[machine.NumAbortReasons] = unwindSignal{retry: true}
	return sig
}()

// Unwind aborts the currently executing transaction body by panicking
// with an internal signal; the system's Atomic wrapper recovers it. Only
// TM implementations call this.
func Unwind(reason machine.AbortReason) {
	panic(unwindSignals[reason])
}

// UnwindRetry unwinds the body for transactional waiting.
func UnwindRetry() {
	panic(unwindSignals[machine.NumAbortReasons])
}

// Catch runs f, converting an Unwind panic into a return value. Panics
// that are not transaction unwinds propagate unchanged.
func Catch(f func()) (reason machine.AbortReason, retry bool, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			u, ok := r.(unwindSignal)
			if !ok {
				panic(r)
			}
			reason, retry, aborted = u.reason, u.retry, true
		}
	}()
	f()
	return machine.AbortNone, false, false
}
