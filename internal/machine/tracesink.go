package machine

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The sinks are Observers that render the printed kinds to an io.Writer
// as the run emits them: subscribe one with Machine.Observe(TraceKinds,
// sink) before Run and Close it afterwards, whether or not the run finished — a sink holds no event,
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
//	{"cycle":12,"proc":0,"kind":"conflict","reason":"conflict","peer":1,"addr":"0x1c0","sw":false}
//
// "reason" appears on tx-abort and conflict, "peer" on conflict, "sw" on
// tx-abort, tx-commit and conflict; "addr", "age" and "path" appear
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
	if e.Kind == TraceConflict {
		buf = append(buf, `,"peer":`...)
		buf = strconv.AppendInt(buf, int64(e.Peer), 10)
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
	if e.hasSW() {
		buf = append(buf, `,"sw":`...)
		buf = strconv.AppendBool(buf, e.SW())
	}
	s.buf = append(buf, '}', '\n')
	s.w.Write(s.buf)
}

// --- Chrome trace_event sink ---

// chromeAttempt tracks an in-flight attempt (tx-attempt → tx-abort,
// tx-retry-wait or tx-commit) on one simulated processor.
type chromeAttempt struct {
	begin uint64
	path  TxPath
}

// chromeTx tracks an in-flight logical transaction (tx-begin → tx-commit)
// on one simulated processor: its start cycle and age, how many attempts
// it has made, and the abort reasons it accumulated along the way.
type chromeTx struct {
	begin, age uint64
	attempts   uint64
	aborts     [NumAbortReasons]uint64
}

// args renders the tx span's args object (committing path, age, attempt
// count, and per-reason abort counts in declaration order).
func (t *chromeTx) args(path string) string {
	args := fmt.Sprintf(`"path":%q,"age":%d,"attempts":%d`, path, t.age, t.attempts)
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
//   - each attempt (tx-attempt) becomes a complete ("X") duration event
//     named by its path (htm, ufo, sw, fallback), ending at its tx-abort
//     (outcome abort, with the reason), tx-retry-wait (outcome retry) or
//     tx-commit (outcome commit);
//   - each transaction (tx-begin → tx-commit) becomes an enclosing "tx"
//     span — begin through every aborted attempt to the final commit —
//     with the committing path, the age, the attempt count and
//     per-reason abort counts in args; and
//   - ufo-set, ufo-fault, nack and conflict become thread-scoped
//     instant ("i") events.
//
// Timestamps are simulated cycles written as microseconds (1 cycle =
// 1 µs), so Perfetto's time axis reads directly in cycles. The sink
// relies on the machine's order: an attempt's end follows its
// tx-attempt, and a tx-commit its tx-begin, on the same processor.
type ChromeSink struct {
	sinkWriter
	wrote   bool   // at least one event emitted
	last    uint64 // the latest cycle seen: where Close ends open spans
	attempt map[int]chromeAttempt
	tx      map[int]*chromeTx
	named   map[int]bool
}

// NewChromeSink returns a Chrome trace_event sink over w.
func NewChromeSink(w io.Writer) *ChromeSink {
	return &ChromeSink{
		sinkWriter: sinkWriter{bufio.NewWriter(w)},
		attempt:    make(map[int]chromeAttempt),
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

// Event implements Observer.
func (s *ChromeSink) Event(e TraceEvent) {
	s.nameTrack(e.Proc)
	s.last = max(s.last, e.Cycle)
	switch e.Kind {
	case TraceTxBegin:
		s.tx[e.Proc] = &chromeTx{begin: e.Cycle, age: e.Age}
	case TraceTxAttempt:
		if tx, ok := s.tx[e.Proc]; ok {
			tx.attempts++
		}
		s.attempt[e.Proc] = chromeAttempt{begin: e.Cycle, path: e.Path}
	case TraceTxAbort:
		if tx, ok := s.tx[e.Proc]; ok && int(e.Reason) < NumAbortReasons {
			tx.aborts[e.Reason]++
		}
		s.closeAttempt(e.Proc, e.Cycle, fmt.Sprintf(`"outcome":"abort","reason":%q`, e.Reason.String()))
	case TraceTxRetryWait:
		s.closeAttempt(e.Proc, e.Cycle, `"outcome":"retry"`)
	case TraceTxCommit:
		s.closeAttempt(e.Proc, e.Cycle, `"outcome":"commit"`)
		if tx, ok := s.tx[e.Proc]; ok {
			s.closeTx(e.Proc, tx, e.Cycle, e.Path.String())
			delete(s.tx, e.Proc)
		}
	default:
		s.instant(e)
	}
}

// closeAttempt emits proc's open attempt, if any, as a span ending at end.
func (s *ChromeSink) closeAttempt(proc int, end uint64, args string) {
	a, ok := s.attempt[proc]
	if !ok {
		return
	}
	delete(s.attempt, proc)
	s.emit(fmt.Sprintf(`{"name":%q,"ph":"X","pid":0,"tid":%d,"ts":%d,"dur":%d,"args":{%s}}`,
		a.path.String(), proc, a.begin, end-a.begin, args))
}

// closeTx emits the enclosing per-transaction ("tx") span.
func (s *ChromeSink) closeTx(proc int, tx *chromeTx, end uint64, path string) {
	s.emit(fmt.Sprintf(`{"name":"tx","ph":"X","pid":0,"tid":%d,"ts":%d,"dur":%d,"args":{%s}}`,
		proc, tx.begin, end-tx.begin, tx.args(path)))
}

// instant emits a thread-scoped instant ("i") event, its args in the
// JSONL sink's order.
func (s *ChromeSink) instant(e TraceEvent) {
	var args []string
	if e.Kind == TraceConflict {
		args = append(args, fmt.Sprintf(`"reason":%q,"peer":%d`, e.Reason.String(), e.Peer))
	}
	if e.HasAddr() {
		args = append(args, fmt.Sprintf(`"addr":"0x%x"`, e.Addr))
	}
	if e.HasAge() {
		args = append(args, fmt.Sprintf(`"age":%d`, e.Age))
	}
	if e.Kind == TraceConflict {
		args = append(args, fmt.Sprintf(`"sw":%t`, e.SW()))
	}
	s.emit(fmt.Sprintf(`{"name":%q,"ph":"i","s":"t","pid":0,"tid":%d,"ts":%d,"args":{%s}}`,
		e.Kind.String(), e.Proc, e.Cycle, strings.Join(args, ",")))
}

// Close flushes the sink: spans still open (the run ended
// mid-transaction) end at the last cycle the sink saw, with outcome (an
// attempt's) or path (a tx's) "truncated"; then the array is closed and
// the writer flushed.
func (s *ChromeSink) Close() error {
	for _, p := range sortedKeys(s.attempt) {
		s.closeAttempt(p, s.last, `"outcome":"truncated"`)
	}
	for _, p := range sortedKeys(s.tx) {
		s.closeTx(p, s.tx[p], s.last, "truncated")
	}
	if !s.wrote {
		s.w.WriteString(chromeHeader)
	}
	s.w.WriteString("\n]}\n")
	return s.sinkWriter.Close()
}

// sortedKeys returns m's processors in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	procs := make([]int, 0, len(m))
	for p := range m {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	return procs
}
