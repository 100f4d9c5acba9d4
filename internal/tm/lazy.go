package tm

import (
	"repro/internal/machine"
	"repro/internal/mem"
)

// Lazy is the software transaction handle of a lazy-versioning STM:
// stores buffer in a word log until the system's commit publishes them,
// loads see the transaction's own stores first, and closed nesting with
// partial abort (§6's "richer semantics live in the STM") is a savepoint
// in that log. A system supplies the two things that differ between such
// STMs — its read barrier and its write-barrier cost — and hands the
// driver a *Lazy from SWPath.BeginSW; it is pointer-shaped, like HW.
type Lazy struct {
	D *Driver
	// Miss is the system's read barrier, called for a word the
	// transaction has not stored. It validates, logs the read however the
	// system does, and unwinds on a conflict.
	Miss func(addr uint64) uint64
	// StoreCycles is the system's write-barrier cost.
	StoreCycles uint64

	// Log holds the attempt's stores. The system publishes Log.Words at
	// commit; a non-empty log is what makes an attempt a writer.
	Log   mem.WordLog
	nests int // open nests: whether Abort means the innermost nest
}

var _ Tx = (*Lazy)(nil)

// Software costs that are the same in every STM here: taking a closed
// nest's savepoint, folding a committed nest into its parent, and an
// idempotent system call run in place.
const (
	NestOpenCycles  = 4
	NestCloseCycles = 2
	SyscallCycles   = 1
)

// Reset starts an attempt: an empty log and no open nest, whatever the
// last attempt was unwound out of.
func (l *Lazy) Reset() {
	l.Log.Reset()
	l.nests = 0
}

// Rebind returns l's hooks (D to StoreCycles) with an empty log: a kept
// context's Lazy (machine.ContextOf).
func (l *Lazy) Rebind() Lazy {
	l.Log.Reset()
	return Lazy{D: l.D, Miss: l.Miss, StoreCycles: l.StoreCycles, Log: l.Log}
}

// Load implements Tx.
func (l *Lazy) Load(addr uint64) uint64 {
	if v, ok := l.Log.Get(addr); ok {
		return v
	}
	return l.Miss(addr)
}

// Store implements Tx.
func (l *Lazy) Store(addr, val uint64) {
	l.D.P.Elapse(l.StoreCycles)
	l.Log.Put(addr, val)
}

// OnCommit implements Tx.
func (l *Lazy) OnCommit(f func()) { l.D.OnCommit(f) }

// Abort implements Tx: inside a nest, the innermost nest only.
func (l *Lazy) Abort() {
	if l.nests > 0 {
		UnwindNested()
	}
	Unwind(machine.AbortExplicit)
}

// Nested implements Tx with real partial abort: the stores of a nest that
// aborts are truncated off the log. Its reads are not forgotten — the
// parent may act on the nest's outcome, so what the nest saw stays in the
// system's read set and is validated with everything else (USTM's rule:
// conservative isolation is always safe).
func (l *Lazy) Nested(body func()) bool {
	save := l.Log.Len()
	l.nests++
	l.D.P.Elapse(NestOpenCycles)
	aborted := CatchNested(body)
	l.nests--
	if aborted {
		l.Log.Truncate(save)
		return false
	}
	l.D.P.Elapse(NestCloseCycles)
	return true
}

// Retry implements Tx: the request unwinds to the driver, which polls.
func (l *Lazy) Retry() { UnwindRetry() }

// Syscall implements Tx: software transactions run idempotent system
// calls in place.
func (l *Lazy) Syscall() { l.D.P.Elapse(SyscallCycles) }
