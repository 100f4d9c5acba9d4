package machine

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mem"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite trace sink golden files")

// goldenEvents is a handcrafted event stream covering every sink corner:
// commit and abort lifecycles on two processors, an abort at address 0
// and a UFO set at address 0 (real zeros — the TraceFlags bugfix), a
// NACK, software-transaction events, an age-0 transaction, and a
// transaction left open at the end of the stream (a run that died). It is
// a stream a machine can emit: every commit and abort follows its begin
// on the same processor.
func goldenEvents() []TraceEvent {
	return []TraceEvent{
		{Cycle: 10, Proc: 0, Kind: TraceHWBegin, Age: 1, Flags: FlagAge},
		{Cycle: 12, Proc: 1, Kind: TraceSWBegin, Age: 2, Flags: FlagAge},
		{Cycle: 15, Proc: 0, Kind: TraceNack, Addr: 0x1c0, Age: 1, Flags: FlagAddr | FlagAge},
		{Cycle: 20, Proc: 0, Kind: TraceHWCommit, Age: 1, Flags: FlagAge},
		{Cycle: 22, Proc: 1, Kind: TraceUFOSet, Addr: 0, Flags: FlagAddr},
		{Cycle: 25, Proc: 0, Kind: TraceHWBegin, Age: 3, Flags: FlagAge},
		{Cycle: 28, Proc: 0, Kind: TraceUFOFault, Addr: 0x200, Flags: FlagAddr},
		{Cycle: 30, Proc: 0, Kind: TraceHWAbort, Reason: AbortUFOKill, Addr: 0, Age: 3, Flags: FlagAddr | FlagAge},
		{Cycle: 34, Proc: 1, Kind: TraceSWCommit, Age: 2, Flags: FlagAge},
		{Cycle: 36, Proc: 1, Kind: TraceHWBegin, Age: 0, Flags: FlagAge},
		{Cycle: 38, Proc: 1, Kind: TraceHWAbort, Reason: AbortInterrupt, Age: 0, Flags: FlagAge},
		{Cycle: 40, Proc: 2, Kind: TraceHWBegin, Age: 5, Flags: FlagAge}, // left open
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/machine -update-golden` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestJSONLSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, e := range goldenEvents() {
		sink.Event(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// Every line must be valid standalone JSON.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
	}
	checkGolden(t, "trace.jsonl.golden", buf.Bytes())
}

func TestChromeSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeSink(&buf)
	for _, e := range goldenEvents() {
		sink.Event(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// The whole file must be a JSON object with a traceEvents array —
	// the shape Perfetto and about://tracing load.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	// Spans carry ph=X with ts/dur; the open transaction is flushed as
	// truncated at Close.
	var spans, truncated int
	for _, e := range doc.TraceEvents {
		if e["ph"] == "X" {
			spans++
			args := e["args"].(map[string]any)
			if args["outcome"] == "truncated" {
				truncated++
			}
		}
	}
	// Spans: p0 commit, p0 abort, p1 sw commit, p1 age-0 abort, p2
	// truncated-at-close.
	if spans != 5 || truncated != 1 {
		t.Fatalf("spans=%d truncated=%d, want 5/1", spans, truncated)
	}
	checkGolden(t, "trace.chrome.golden.json", buf.Bytes())
}

// TestChromeSinkTxSpans: tx-begin/tx-commit lifecycle events become
// enclosing "tx" spans carrying the committing path, the attempt count,
// and per-reason abort counts; a tx left open at Close flushes as
// truncated.
func TestChromeSinkTxSpans(t *testing.T) {
	events := []TraceEvent{
		{Cycle: 5, Proc: 0, Kind: TraceTxBegin},
		{Cycle: 6, Proc: 0, Kind: TraceHWBegin, Age: 1, Flags: FlagAge},
		{Cycle: 14, Proc: 0, Kind: TraceHWAbort, Reason: AbortConflict, Age: 1, Flags: FlagAge},
		{Cycle: 20, Proc: 0, Kind: TraceHWBegin, Age: 2, Flags: FlagAge},
		{Cycle: 30, Proc: 0, Kind: TraceHWCommit, Age: 2, Flags: FlagAge},
		{Cycle: 31, Proc: 0, Kind: TraceTxCommit, Path: PathHTM, Flags: FlagPath},
		{Cycle: 40, Proc: 1, Kind: TraceTxBegin}, // left open: truncated at Close
	}
	var buf bytes.Buffer
	sink := NewChromeSink(&buf)
	for _, e := range events {
		sink.Event(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var spans, truncated int
	for _, e := range doc.TraceEvents {
		if e["name"] != "tx" || e["ph"] != "X" {
			continue
		}
		args := e["args"].(map[string]any)
		if args["path"] == "truncated" {
			truncated++
			continue
		}
		spans++
		if args["path"] != "htm" {
			t.Errorf("tx span path = %v, want htm", args["path"])
		}
		if args["attempts"] != float64(2) {
			t.Errorf("tx span attempts = %v, want 2", args["attempts"])
		}
		aborts, ok := args["aborts"].(map[string]any)
		if !ok || aborts["conflict"] != float64(1) {
			t.Errorf("tx span aborts = %v, want conflict:1", args["aborts"])
		}
		if e["ts"] != float64(5) || e["dur"] != float64(26) {
			t.Errorf("tx span ts/dur = %v/%v, want 5/26", e["ts"], e["dur"])
		}
	}
	if spans != 1 || truncated != 1 {
		t.Fatalf("tx spans=%d truncated=%d, want 1/1\n%s", spans, truncated, buf.String())
	}
}

// TestJSONLSinkTxPath: tx-commit events carry the committing path by
// name (the Path field, FlagPath set).
func TestJSONLSinkTxPath(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Event(TraceEvent{Cycle: 31, Proc: 0, Kind: TraceTxCommit, Path: PathUFO, Flags: FlagPath})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"tx-commit"`) || !strings.Contains(buf.String(), `"path":"ufo"`) {
		t.Fatalf("JSONL tx-commit missing path: %q", buf.String())
	}
}

// TestMachineTxLifeSpansInTrace: a real run through the TxLife hooks
// lands tx-begin/tx-commit events in the printed trace alongside the
// hardware attempt events, without advancing the simulated clock.
func TestMachineTxLifeSpansInTrace(t *testing.T) {
	m := New(testParams(1))
	tr := observe(m, TraceKinds)
	m.Run([]func(*Proc){func(p *Proc) {
		p.TxLifeBegin()
		p.TxLifeAttempt(PathHTM)
		p.BeginHW(m.NextAge(), true)
		p.TxWrite(64, 1)
		p.CommitHW()
		p.TxLifeCommit(PathHTM)
	}})
	var begin, commit *TraceEvent
	for i, e := range tr.events {
		switch e.Kind {
		case TraceTxBegin:
			begin = &tr.events[i]
		case TraceTxCommit:
			commit = &tr.events[i]
		}
	}
	if begin == nil || commit == nil {
		t.Fatalf("trace missing tx lifecycle events:\n%v", tr.events)
	}
	if !commit.HasPath() || commit.Path != PathHTM {
		t.Errorf("tx-commit path = %+v, want htm", commit)
	}
	if commit.Cycle < begin.Cycle {
		t.Errorf("tx span inverted: begin @%d, commit @%d", begin.Cycle, commit.Cycle)
	}
}

// TestTextSinkMatchesDump: the text sink writes one TraceEvent.String
// line per event and nothing else.
func TestTextSinkMatchesDump(t *testing.T) {
	var viaSink, viaDump bytes.Buffer
	sink := NewTextSink(&viaSink)
	for _, e := range goldenEvents() {
		sink.Event(e)
		viaDump.WriteString(e.String() + "\n")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if viaSink.String() != viaDump.String() {
		t.Errorf("TextSink and one String line per event disagree:\n%s\nvs\n%s", viaSink.String(), viaDump.String())
	}
}

// TestTraceEventZeroAddrAndAge is the regression for the String()
// suppression bug: an abort at address 0 and an age-0 transaction are
// real values and must render, while genuinely unset fields must not.
func TestTraceEventZeroAddrAndAge(t *testing.T) {
	withZeros := TraceEvent{Cycle: 5, Proc: 0, Kind: TraceHWAbort, Reason: AbortUFOKill,
		Addr: 0, Age: 0, Flags: FlagAddr | FlagAge}
	s := withZeros.String()
	if !strings.Contains(s, "addr=0x0") || !strings.Contains(s, "age=0") {
		t.Errorf("zero-valued set fields suppressed: %q", s)
	}
	unset := TraceEvent{Cycle: 5, Proc: 0, Kind: TraceHWAbort, Reason: AbortInterrupt}
	s = unset.String()
	if strings.Contains(s, "addr=") || strings.Contains(s, "age=") {
		t.Errorf("unset fields rendered: %q", s)
	}

	var jl bytes.Buffer
	sink := NewJSONLSink(&jl)
	sink.Event(withZeros)
	sink.Event(unset)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jl.String()), "\n")
	if !strings.Contains(lines[0], `"addr":"0x0"`) || !strings.Contains(lines[0], `"age":0`) {
		t.Errorf("JSONL suppressed zero-valued set fields: %q", lines[0])
	}
	if strings.Contains(lines[1], `"addr"`) || strings.Contains(lines[1], `"age"`) {
		t.Errorf("JSONL rendered unset fields: %q", lines[1])
	}
}

// TestMachineRecordsFlags checks the machine sets TraceFlags correctly on
// real runs: an abort caused by a conflict at line-0 addresses carries
// addr 0 with FlagAddr set.
func TestMachineRecordsFlags(t *testing.T) {
	m := New(testParams(2))
	tr := observe(m, TraceKinds)
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.BeginHW(m.NextAge(), true)
			p.TxWrite(0, 1) // line 0: a real zero address
			p.Elapse(500)
			if p.HW() != nil {
				p.CommitHW()
			}
		},
		func(p *Proc) {
			p.Elapse(100) // let proc 0 claim line 0 first
			p.NTWrite(0, 2)
			p.Elapse(1000)
		},
	})
	var sawAbortAt0 bool
	for _, e := range tr.events {
		switch e.Kind {
		case TraceHWBegin, TraceHWCommit:
			if !e.HasAge() || e.HasAddr() {
				t.Errorf("%s flags = %b", e.Kind, e.Flags)
			}
		case TraceHWAbort:
			if e.HasAddr() && e.Addr == 0 {
				sawAbortAt0 = true
			}
		}
	}
	if !sawAbortAt0 {
		t.Errorf("no abort carrying address 0 recorded; events:\n%v", tr.events)
	}
}

// TestStreamingSinkMatchesExport: a sink subscribed live with Observe
// writes exactly what feeding a recording of the same run to a second
// sink afterwards writes — with the accounting observers (a
// contention-shaped subscription, and one to every accounting kind and
// the lifecycle span) on the same machine — and watching the run must
// not move its cycles or counters.
func TestStreamingSinkMatchesExport(t *testing.T) {
	workload := []func(*Proc){func(p *Proc) {
		p.TxLifeBegin()
		p.TxLifeAttempt(PathHTM)
		p.BeginHW(p.Machine().NextAge(), true)
		p.TxWrite(64, 7)
		p.CommitHW()
		p.TxLifeCommit(PathHTM)
		p.SetUFOEnabled(false)
		p.SetUFO(64, mem.UFOFaultAll)
		p.SetUFOEnabled(true)
		p.NTRead(64)
	}}
	bare := New(testParams(1))
	bare.Run(workload)

	var live bytes.Buffer
	m := New(testParams(1))
	tr := observe(m, TraceKinds)
	sink := NewJSONLSink(&live)
	m.Observe(TraceKinds, sink)
	edges := observe(m, KindSet(TraceConflict, TraceHWCommit, TraceSWCommitted))
	lifecycle := observe(m, AllKinds&^TraceKinds|KindSet(TraceTxBegin, TraceTxCommit))
	m.Run(workload)
	// Flush the live sink (the machine never closes observers itself).
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Cycles() != bare.Cycles() || m.Count != bare.Count {
		t.Errorf("observed run differs from the bare run: %d cycles %+v vs %d cycles %+v",
			m.Cycles(), m.Count, bare.Cycles(), bare.Count)
	}
	if len(edges.events) != 1 || len(lifecycle.events) != 4 {
		t.Errorf("accounting observers saw %d and %d events, want 1 (hw-commit) and 4 (begin, attempt, the commit's mem-write, commit)",
			len(edges.events), len(lifecycle.events))
	}
	var replay bytes.Buffer
	second := NewJSONLSink(&replay)
	for _, e := range tr.events {
		second.Event(e)
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	if live.String() != replay.String() {
		t.Errorf("streamed and replayed traces differ:\n%s\nvs\n%s", live.String(), replay.String())
	}
	if !strings.Contains(live.String(), "ufo-fault") {
		t.Errorf("trace missing ufo-fault:\n%s", live.String())
	}
}

// TestAccountingKindsRender: the kinds outside the printed trace still
// have a complete text form (what a failing stream assertion prints) — a
// conflict names its reason, aggressor and line; a backoff its cycles —
// and the two kind sets are what they say.
func TestAccountingKindsRender(t *testing.T) {
	conflict := TraceEvent{Cycle: 7, Proc: 1, Kind: TraceConflict, Reason: AbortUFOKill,
		Peer: -1, Addr: 0x40, Flags: FlagAddr | FlagSW}
	backoff := TraceEvent{Cycle: 9, Proc: 0, Kind: TraceTxBackoff, Arg: 48}
	if s := conflict.String(); !strings.Contains(s, "reason=ufo-kill peer=-1 addr=0x40") {
		t.Errorf("conflict text = %q", s)
	}
	if s := backoff.String(); !strings.Contains(s, "tx-backoff arg=48") {
		t.Errorf("backoff text = %q", s)
	}
	for k := TraceKind(0); k < numTraceKinds; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "TraceKind(") {
			t.Errorf("kind %d has no name", k)
		}
		if TraceKinds.Has(k) != (k <= TraceTxCommit) || !AllKinds.Has(k) {
			t.Errorf("kind %s: printed=%v all=%v", k, TraceKinds.Has(k), AllKinds.Has(k))
		}
	}
}

// TestJSONLSinkEventAllocatesNothing: the JSONL sink builds every line
// in one buffer it keeps, so once that buffer has grown to the longest
// line an event costs no allocation — a million-event storm trace is
// O(1) in memory.
func TestJSONLSinkEventAllocatesNothing(t *testing.T) {
	sink := NewJSONLSink(io.Discard)
	events := goldenEvents()
	for _, e := range events { // warm-up: grow the line buffer
		sink.Event(e)
	}
	perRound := testing.AllocsPerRun(100, func() {
		for _, e := range events {
			sink.Event(e)
		}
	})
	if perRound > raceSlack {
		t.Errorf("%v allocations per %d events after warm-up, want %d", perRound, len(events), raceSlack)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

// failAfter is a writer that accepts n bytes and then fails every write.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

// closingObserver is what the three sinks have in common.
type closingObserver interface {
	Observer
	io.Closer
}

// TestSinkCloseSurfacesFirstWriteError: a sink never stops the run for
// an I/O error — Event returns nothing — so Close must report it, for a
// writer that fails at once and for one that fails mid-stream.
func TestSinkCloseSurfacesFirstWriteError(t *testing.T) {
	for _, budget := range []int{0, 5000} {
		for name, open := range map[string]func(io.Writer) closingObserver{
			"text":   func(w io.Writer) closingObserver { return NewTextSink(w) },
			"jsonl":  func(w io.Writer) closingObserver { return NewJSONLSink(w) },
			"chrome": func(w io.Writer) closingObserver { return NewChromeSink(w) },
		} {
			sink := open(&failAfter{n: budget})
			for i := 0; i < 200; i++ { // several bufio buffers' worth
				for _, e := range goldenEvents() {
					sink.Event(e)
				}
			}
			if err := sink.Close(); err != io.ErrClosedPipe {
				t.Errorf("%s sink, writer failing after %d bytes: Close = %v, want the write error", name, budget, err)
			}
		}
	}
}
