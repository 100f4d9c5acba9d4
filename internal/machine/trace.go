package machine

import (
	"fmt"
	"io"
)

// TraceKind classifies trace events.
type TraceKind uint8

// Trace event kinds.
const (
	TraceHWBegin TraceKind = iota
	TraceHWCommit
	TraceHWAbort
	TraceSWBegin
	TraceSWCommit
	TraceSWAbort
	TraceUFOSet
	TraceUFOFault
	TraceNack
	TraceBlock
	TraceWake
	// TraceTxBegin and TraceTxCommit bracket one logical transaction (an
	// Atomic call spanning every attempt); the Chrome sink turns the pair
	// into a per-transaction span. TraceTxCommit carries the committing
	// path (TxPath) in the Age field with FlagPath set.
	TraceTxBegin
	TraceTxCommit
)

var traceKindNames = []string{
	"hw-begin", "hw-commit", "hw-abort", "sw-begin", "sw-commit",
	"sw-abort", "ufo-set", "ufo-fault", "nack", "block", "wake",
	"tx-begin", "tx-commit",
}

// String returns the trace-kind name used in text exports.
func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return fmt.Sprintf("TraceKind(%d)", uint8(k))
}

// TraceFlags marks which optional TraceEvent fields carry real values.
// Address 0 and age 0 are legitimate values (the first line of simulated
// memory; pre-age bookkeeping events), so "present" must be recorded
// explicitly rather than inferred from zero.
type TraceFlags uint8

// The flag bits.
const (
	// FlagAddr: the Addr field is meaningful.
	FlagAddr TraceFlags = 1 << iota
	// FlagAge: the Age field is meaningful.
	FlagAge
	// FlagPath: the Age field carries a TxPath (tx-commit events).
	FlagPath
)

// TraceEvent is one recorded event.
type TraceEvent struct {
	Cycle  uint64
	Proc   int
	Kind   TraceKind
	Reason AbortReason // for aborts
	Addr   uint64      // for ufo-set / ufo-fault / conflict addresses
	Age    uint64      // transaction age, where applicable
	Flags  TraceFlags  // which of Addr/Age are set
}

// HasAddr reports whether Addr carries a real address (address 0 counts).
func (e TraceEvent) HasAddr() bool { return e.Flags&FlagAddr != 0 }

// HasAge reports whether Age carries a real transaction age.
func (e TraceEvent) HasAge() bool { return e.Flags&FlagAge != 0 }

// HasPath reports whether Age carries a TxPath (tx-commit events).
func (e TraceEvent) HasPath() bool { return e.Flags&FlagPath != 0 }

// String formats the event as one line of the text trace.
func (e TraceEvent) String() string {
	s := fmt.Sprintf("%10d  p%-2d %-9s", e.Cycle, e.Proc, e.Kind)
	switch e.Kind {
	case TraceHWAbort, TraceSWAbort:
		s += fmt.Sprintf(" reason=%s", e.Reason)
	}
	if e.HasAddr() {
		s += fmt.Sprintf(" addr=%#x", e.Addr)
	}
	if e.HasAge() {
		s += fmt.Sprintf(" age=%d", e.Age)
	}
	if e.HasPath() {
		s += fmt.Sprintf(" path=%s", TxPath(e.Age))
	}
	return s
}

// Trace is a bounded in-memory event log. Enable it with
// Machine.EnableTrace; when full it keeps the most recent events (ring
// buffer), which is what post-mortem debugging wants.
type Trace struct {
	limit  int
	events []TraceEvent
	start  int // ring start when full
	total  uint64
}

// EnableTrace starts recording up to limit events (most recent kept).
// Events are appended by the processor holding the execution token, so
// the recorded sequence is deterministic and identical under either
// scheduler. Call EnableTrace itself before Run.
func (m *Machine) EnableTrace(limit int) *Trace {
	if limit <= 0 {
		limit = 4096
	}
	m.trace = &Trace{limit: limit}
	return m.trace
}

// Trace returns the machine's trace, or nil. Read it between runs; the
// machine appends to it during Run (in deterministic order).
func (m *Machine) Trace() *Trace { return m.trace }

// add records an event.
func (t *Trace) add(e TraceEvent) {
	t.total++
	if len(t.events) < t.limit {
		t.events = append(t.events, e)
		return
	}
	t.events[t.start] = e
	t.start = (t.start + 1) % t.limit
}

// Events returns the recorded events, oldest first.
func (t *Trace) Events() []TraceEvent {
	if t.start == 0 {
		return append([]TraceEvent(nil), t.events...)
	}
	out := make([]TraceEvent, 0, len(t.events))
	out = append(out, t.events[t.start:]...)
	out = append(out, t.events[:t.start]...)
	return out
}

// Total reports how many events were recorded (including evicted ones).
func (t *Trace) Total() uint64 { return t.total }

// Dump writes the recorded events to w.
func (t *Trace) Dump(w io.Writer) {
	if t.total > uint64(len(t.events)) {
		fmt.Fprintf(w, "(%d earlier events evicted)\n", t.total-uint64(len(t.events)))
	}
	for _, e := range t.Events() {
		fmt.Fprintln(w, e)
	}
}

// record is the machine-side hook (no-op when tracing is off). flags
// states which of addr/age are meaningful for this event.
func (p *Proc) record(kind TraceKind, reason AbortReason, addr, age uint64, flags TraceFlags) {
	if p.m.trace == nil && len(p.m.sinks) == 0 {
		return
	}
	e := TraceEvent{
		Cycle: p.Now(), Proc: p.ID(), Kind: kind,
		Reason: reason, Addr: addr, Age: age, Flags: flags,
	}
	if p.m.trace != nil {
		p.m.trace.add(e)
	}
	for _, s := range p.m.sinks {
		s.Event(e)
	}
}

// RecordSW lets software TMs log their transaction lifecycle into the
// shared trace.
func (p *Proc) RecordSW(kind TraceKind, reason AbortReason, age uint64) {
	p.record(kind, reason, 0, age, FlagAge)
}
