package machine

import "fmt"

// The event spine: one event type, one Observer interface, one
// subscription call (Machine.Observe) and one emitter (Proc.emit) carry
// everything that watches a run — the text/jsonl/chrome sinks,
// contention.Profile, txstats.Recorder, a test's recording observer.
// OBSERVABILITY.md lists every kind with its emitter and its consumers.

// TraceKind classifies machine events.
type TraceKind uint8

// Event kinds. The first nine (TraceKinds) are the printed trace;
// the rest feed the accounting observers.
const (
	TraceUFOSet TraceKind = iota
	TraceUFOFault
	TraceNack
	// TraceConflict is one who-aborted-whom edge: Peer performed the action
	// that aborted Proc's transaction. A self-inflicted abort (explicit,
	// syscall, overflow, interrupt) has Peer == Proc; Peer is -1 when the
	// conflicting party is unknown (e.g. a TL2 validation failure against
	// an already-released stripe). FlagSW marks a software victim.
	TraceConflict
	// TraceTxBegin and TraceTxCommit bracket one logical transaction (an
	// Atomic call spanning every attempt), whose age TraceTxBegin carries.
	TraceTxBegin
	// TraceTxAttempt starts one attempt on Path; TraceTxAbort ends it as
	// failed, TraceTxRetryWait as a Retry suspension (§6: cycles until
	// the next TraceTxAttempt are transactional waiting, not wasted
	// work), and TraceTxCommit as the one that committed.
	TraceTxAttempt
	TraceTxAbort
	TraceTxRetryWait
	TraceTxCommit
	// TraceTxBackoff reports Arg cycles just spent in a
	// contention-management delay.
	TraceTxBackoff
	// TraceTxArrival tags the next TraceTxBegin on Proc with the cycle
	// (Arg) its open-loop request arrived.
	TraceTxArrival
	// TraceMemWrite is one store reaching simulated memory: Addr, and
	// the value in Arg. NTWrite and CommitHW's publish emit it, in the
	// order the stores land.
	TraceMemWrite

	numTraceKinds
)

var traceKindNames = [numTraceKinds]string{
	"ufo-set", "ufo-fault", "nack", "conflict", "tx-begin", "tx-attempt",
	"tx-abort", "tx-retry-wait", "tx-commit", "tx-backoff", "tx-arrival",
	"mem-write",
}

// Kinds is a set of event kinds: what an observer subscribes to.
type Kinds uint32

// KindSet returns the set holding exactly ks.
func KindSet(ks ...TraceKind) Kinds {
	var s Kinds
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

// Has reports whether k is in the set.
func (s Kinds) Has(k TraceKind) bool { return s&(1<<k) != 0 }

const (
	// TraceKinds is the printed trace, ufo-set through tx-commit: what
	// every sink subscribes to, so written traces stay byte-stable as
	// accounting kinds are added.
	TraceKinds Kinds = 1<<(TraceTxCommit+1) - 1
	// AllKinds is every kind the machine emits.
	AllKinds Kinds = 1<<numTraceKinds - 1
)

// String returns the trace-kind name used in text exports.
func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return fmt.Sprintf("TraceKind(%d)", uint8(k))
}

// TraceFlags marks which optional TraceEvent fields carry real values.
// Address 0, age 0 and path 0 (htm) are legitimate values, so "present"
// must be recorded explicitly rather than inferred from zero.
type TraceFlags uint8

// The flag bits.
const (
	// FlagAddr: the Addr field is meaningful.
	FlagAddr TraceFlags = 1 << iota
	// FlagAge: the Age field is meaningful.
	FlagAge
	// FlagPath: the Path field is meaningful.
	FlagPath
	// FlagSW: the aborted (victim) transaction of a conflict, or the
	// attempt a tx-abort or tx-commit ends, ran in software.
	FlagSW
)

// TraceEvent is one machine event, as handed to every Observer that
// subscribed to its Kind.
type TraceEvent struct {
	Cycle  uint64 // the emitting processor's clock
	Proc   int    // the processor the event is about (a conflict's victim)
	Kind   TraceKind
	Reason AbortReason // for aborts and conflicts
	Path   TxPath      // for tx-attempt / tx-abort / tx-commit
	Flags  TraceFlags  // which of Addr/Age/Path are set; FlagSW
	Peer   int         // a conflict's aggressor, -1 unknown
	Addr   uint64      // for ufo-set / ufo-fault / nack / conflict / mem-write addresses
	Age    uint64      // for tx-begin and nack: the transaction's age
	Arg    uint64      // tx-backoff: cycles spent; tx-arrival: arrival cycle; mem-write: value
}

// HasAddr reports whether Addr carries a real address (address 0 counts).
func (e TraceEvent) HasAddr() bool { return e.Flags&FlagAddr != 0 }

// HasAge reports whether Age carries a real transaction age.
func (e TraceEvent) HasAge() bool { return e.Flags&FlagAge != 0 }

// HasPath reports whether Path carries the attempt's execution path.
func (e TraceEvent) HasPath() bool { return e.Flags&FlagPath != 0 }

// SW reports whether a conflict's victim, or the attempt a tx-abort or
// tx-commit ends, ran in software.
func (e TraceEvent) SW() bool { return e.Flags&FlagSW != 0 }

// hasReason reports whether Reason is part of the event's printed form.
func (e TraceEvent) hasReason() bool { return e.Kind == TraceTxAbort || e.Kind == TraceConflict }

// hasSW reports whether the FlagSW bit is part of the event's printed
// form: on tx-abort, tx-commit and conflict.
func (e TraceEvent) hasSW() bool { return e.hasReason() || e.Kind == TraceTxCommit }

// String formats the event as one line of the text trace.
func (e TraceEvent) String() string {
	s := fmt.Sprintf("%10d  p%-2d %-13s", e.Cycle, e.Proc, e.Kind)
	if e.hasReason() {
		s += fmt.Sprintf(" reason=%s", e.Reason)
	}
	if e.Kind == TraceConflict {
		s += fmt.Sprintf(" peer=%d", e.Peer)
	}
	if e.HasAddr() {
		s += fmt.Sprintf(" addr=%#x", e.Addr)
	}
	if e.HasAge() {
		s += fmt.Sprintf(" age=%d", e.Age)
	}
	if e.HasPath() {
		s += fmt.Sprintf(" path=%s", e.Path)
	}
	if e.hasSW() {
		s += fmt.Sprintf(" sw=%t", e.SW())
	}
	if e.Kind == TraceTxBackoff || e.Kind == TraceTxArrival || e.Kind == TraceMemWrite {
		s += fmt.Sprintf(" arg=%d", e.Arg)
	}
	return s
}

// Observer consumes machine events. The machine calls Event from the
// processor holding the execution token, so an observer sees the
// deterministic schedule order under either scheduler and needs no
// locking. Implementations must be cheap: every abort, commit and
// lifecycle path calls them.
type Observer interface {
	Event(e TraceEvent)
}

// observers is the machine's one way out for events: the subscribers in
// Observe order, and the union of the kinds they asked for.
type observers struct {
	want Kinds
	subs []subscription
}

type subscription struct {
	kinds Kinds
	o     Observer
}

// Observe subscribes o to every subsequent event whose kind is in
// kinds. Subscribe before Run; the machine never closes or detaches an
// observer.
func (m *Machine) Observe(kinds Kinds, o Observer) {
	m.out.want |= kinds
	m.out.subs = append(m.out.subs, subscription{kinds, o})
}

// emit stamps e with p's clock and hands it to every observer that
// subscribed to its kind. A kind nobody subscribed to costs this one
// mask test; and since emit never advances the clock or draws from an
// RNG, observed and unobserved runs are cycle-identical.
func (p *Proc) emit(e TraceEvent) {
	if !p.m.out.want.Has(e.Kind) {
		return
	}
	e.Cycle = p.Now()
	for _, s := range p.m.out.subs {
		if s.kinds.Has(e.Kind) {
			s.o.Event(e)
		}
	}
}
