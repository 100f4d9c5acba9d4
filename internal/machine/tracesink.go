package machine

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// The sinks are Observers that render the printed kinds to an io.Writer
// as the run emits them: subscribe one with Machine.Observe(TraceKinds,
// sink) (a ChromeSink with ChromeKinds) before Run and Close it
// afterwards, whether or not the run finished — a sink holds no event,
// so the file of a run that died ends where the run did.

// sinkWriter is what every sink writes through: a bufio.Writer, which
// keeps the first I/O error itself and accepts nothing after it, so the
// simulated hot path never stops to handle one.
type sinkWriter struct{ w *bufio.Writer }

// Close flushes the sink and returns the first error encountered.
func (s sinkWriter) Close() error { return s.w.Flush() }

// --- Text sink ---

// TextSink writes the human-readable event format (TraceEvent.String),
// one event per line.
type TextSink struct{ sinkWriter }

// NewTextSink returns a text sink over w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{sinkWriter{bufio.NewWriter(w)}} }

// Event implements Observer.
func (s *TextSink) Event(e TraceEvent) { fmt.Fprintln(s.w, e) }

// --- JSONL sink ---

// JSONLSink writes one JSON object per event, with a fixed field order:
//
//	{"cycle":12,"proc":0,"kind":"hw-abort","reason":"conflict","addr":"0x1c0","age":3}
//
// "reason" appears only on aborts; "addr", "age" and "path" appear
// exactly when the event carries them (address 0 and age 0 included —
// see TraceFlags).
// The line format is stable and documented in OBSERVABILITY.md.
type JSONLSink struct {
	sinkWriter
	buf []byte // one line, reused: an event allocates nothing
}

// NewJSONLSink returns a JSONL sink over w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{sinkWriter: sinkWriter{bufio.NewWriter(w)}}
}

// Event implements Observer.
func (s *JSONLSink) Event(e TraceEvent) {
	buf := append(s.buf[:0], `{"cycle":`...)
	buf = strconv.AppendUint(buf, e.Cycle, 10)
	buf = append(buf, `,"proc":`...)
	buf = strconv.AppendInt(buf, int64(e.Proc), 10)
	buf = append(buf, `,"kind":`...)
	buf = strconv.AppendQuote(buf, e.Kind.String())
	if e.hasReason() {
		buf = append(buf, `,"reason":`...)
		buf = strconv.AppendQuote(buf, e.Reason.String())
	}
	if e.HasAddr() {
		buf = append(buf, `,"addr":"0x`...)
		buf = append(strconv.AppendUint(buf, e.Addr, 16), '"')
	}
	if e.HasAge() {
		buf = append(buf, `,"age":`...)
		buf = strconv.AppendUint(buf, e.Age, 10)
	}
	if e.HasPath() {
		buf = append(buf, `,"path":`...)
		buf = strconv.AppendQuote(buf, e.Path.String())
	}
	s.buf = append(buf, '}', '\n')
	s.w.Write(s.buf)
}

// --- Chrome trace_event sink ---

// chromeOpen tracks an in-flight transaction attempt on one simulated
// processor.
type chromeOpen struct {
	begin uint64
	age   uint64
	hw    bool
}

// chromeTx tracks an in-flight logical transaction (tx-begin → tx-commit)
// on one simulated processor: its start cycle, how many attempts it has
// made, and the abort reasons it accumulated along the way.
type chromeTx struct {
	begin    uint64
	attempts uint64
	aborts   [NumAbortReasons]uint64
}

// args renders the tx span's args object (attempt count, committing
// path, and per-reason abort counts in declaration order).
func (t *chromeTx) args(path string) string {
	args := fmt.Sprintf(`"path":%q,"attempts":%d`, path, t.attempts)
	aborts := ""
	for r := 1; r < NumAbortReasons; r++ {
		if t.aborts[r] == 0 {
			continue
		}
		if aborts != "" {
			aborts += ","
		}
		aborts += fmt.Sprintf(`%q:%d`, AbortReason(r).String(), t.aborts[r])
	}
	if aborts != "" {
		args += fmt.Sprintf(`,"aborts":{%s}`, aborts)
	}
	return args
}

// ChromeSink writes the Chrome trace_event JSON format (loadable in
// Perfetto / about://tracing), with one track ("thread") per simulated
// processor under a single "tmsim machine" process:
//
//   - HW and SW transaction lifetimes become complete ("X") duration
//     events named "hw-tx" / "sw-tx", spanning begin → commit/abort, with
//     the age, outcome, abort reason, and conflict address in args;
//   - tx-begin/tx-commit pairs (the Proc.TxLife* lifecycle hooks) become
//     enclosing per-transaction "tx" spans — begin through every aborted
//     attempt to the final commit — with the committing path, the attempt
//     count (tx-attempt), and per-reason abort counts (tx-abort) in args,
//     which every Atomic loop emits; and
//   - ufo-set, ufo-fault and nack become thread-scoped
//     instant ("i") events.
//
// Timestamps are simulated cycles written as microseconds (1 cycle =
// 1 µs), so Perfetto's time axis reads directly in cycles. The sink
// relies on the machine's order: a commit, abort or tx-commit follows
// its begin on the same processor.
type ChromeSink struct {
	sinkWriter
	wrote bool // at least one event emitted
	open  map[int]chromeOpen
	tx    map[int]*chromeTx
	named map[int]bool
}

// NewChromeSink returns a Chrome trace_event sink over w.
func NewChromeSink(w io.Writer) *ChromeSink {
	return &ChromeSink{
		sinkWriter: sinkWriter{bufio.NewWriter(w)},
		open:       make(map[int]chromeOpen),
		tx:         make(map[int]*chromeTx),
		named:      make(map[int]bool),
	}
}

const chromeHeader = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"

// emit writes one trace_event object, handling the array framing.
func (s *ChromeSink) emit(body string) {
	sep := ",\n"
	if !s.wrote {
		sep, s.wrote = chromeHeader, true
	}
	s.w.WriteString(sep)
	s.w.WriteString(body)
}

// nameTrack emits the per-processor metadata events once per track.
func (s *ChromeSink) nameTrack(proc int) {
	if s.named[proc] {
		return
	}
	s.named[proc] = true
	if len(s.named) == 1 {
		s.emit(`{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"tmsim machine"}}`)
	}
	s.emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"proc %d"}}`, proc, proc))
	s.emit(fmt.Sprintf(`{"name":"thread_sort_index","ph":"M","pid":0,"tid":%d,"args":{"sort_index":%d}}`, proc, proc))
}

// txArgs renders the args object for a completed transaction span.
func txArgs(e TraceEvent, open chromeOpen, outcome string) string {
	args := fmt.Sprintf(`"age":%d,"outcome":%q`, open.age, outcome)
	if outcome == "abort" {
		args += fmt.Sprintf(`,"reason":%q`, e.Reason.String())
		if e.HasAddr() {
			args += fmt.Sprintf(`,"addr":"0x%x"`, e.Addr)
		}
	}
	return args
}

// Event implements Observer.
func (s *ChromeSink) Event(e TraceEvent) {
	s.nameTrack(e.Proc)
	switch e.Kind {
	case TraceHWBegin, TraceSWBegin:
		// A begin while a span is open: the previous attempt was retired
		// with no commit or abort event, which a USTM Retry wake-up does
		// (ustm.Thread.RunTx); close it at this cycle.
		if prev, ok := s.open[e.Proc]; ok {
			s.closeSpan(e.Proc, prev, e.Cycle, `"outcome":"truncated"`)
		}
		s.open[e.Proc] = chromeOpen{begin: e.Cycle, age: e.Age, hw: e.Kind == TraceHWBegin}
	case TraceHWCommit, TraceSWCommit, TraceHWAbort, TraceSWAbort:
		outcome := "commit"
		if e.Kind == TraceHWAbort || e.Kind == TraceSWAbort {
			outcome = "abort"
		}
		open := s.open[e.Proc]
		delete(s.open, e.Proc)
		s.closeSpan(e.Proc, open, e.Cycle, txArgs(e, open, outcome))
	case TraceTxBegin:
		s.tx[e.Proc] = &chromeTx{begin: e.Cycle}
	case TraceTxAttempt:
		if tx, ok := s.tx[e.Proc]; ok {
			tx.attempts++
		}
	case TraceTxAbort:
		if tx, ok := s.tx[e.Proc]; ok && int(e.Reason) < NumAbortReasons {
			tx.aborts[e.Reason]++
		}
	case TraceTxCommit:
		s.closeTx(e.Proc, s.tx[e.Proc], e.Cycle, e.Path.String())
		delete(s.tx, e.Proc)
	default:
		s.instant(e)
	}
}

// closeTx emits the enclosing per-transaction ("tx") span.
func (s *ChromeSink) closeTx(proc int, tx *chromeTx, end uint64, path string) {
	s.emit(fmt.Sprintf(`{"name":"tx","ph":"X","pid":0,"tid":%d,"ts":%d,"dur":%d,"args":{%s}}`,
		proc, tx.begin, end-tx.begin, tx.args(path)))
}

// closeSpan emits a complete ("X") event for a transaction span.
func (s *ChromeSink) closeSpan(proc int, open chromeOpen, end uint64, args string) {
	name := "hw-tx"
	if !open.hw {
		name = "sw-tx"
	}
	s.emit(fmt.Sprintf(`{"name":%q,"ph":"X","pid":0,"tid":%d,"ts":%d,"dur":%d,"args":{%s}}`,
		name, proc, open.begin, end-open.begin, args))
}

// instant emits a thread-scoped instant ("i") event.
func (s *ChromeSink) instant(e TraceEvent) {
	args := ""
	if e.hasReason() {
		args = fmt.Sprintf(`"reason":%q`, e.Reason.String())
	}
	if e.HasAddr() {
		if args != "" {
			args += ","
		}
		args += fmt.Sprintf(`"addr":"0x%x"`, e.Addr)
	}
	if e.HasAge() {
		if args != "" {
			args += ","
		}
		args += fmt.Sprintf(`"age":%d`, e.Age)
	}
	s.emit(fmt.Sprintf(`{"name":%q,"ph":"i","s":"t","pid":0,"tid":%d,"ts":%d,"args":{%s}}`,
		e.Kind.String(), e.Proc, e.Cycle, args))
}

// Close flushes the sink: still-open transaction spans are flushed as
// truncated (the run ended mid-transaction), the array is closed, and the
// writer flushed.
func (s *ChromeSink) Close() error {
	procs := make([]int, 0, len(s.open))
	for p := range s.open {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, p := range procs {
		open := s.open[p]
		s.closeSpan(p, open, open.begin, `"outcome":"truncated"`)
	}
	procs = procs[:0]
	for p := range s.tx {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, p := range procs {
		s.closeTx(p, s.tx[p], s.tx[p].begin, "truncated")
	}
	if !s.wrote {
		s.w.WriteString(chromeHeader)
	}
	s.w.WriteString("\n]}\n")
	return s.sinkWriter.Close()
}
