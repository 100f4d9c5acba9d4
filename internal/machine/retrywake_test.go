package machine_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/tm"
	"repro/internal/tmtest"
	"repro/internal/txlib"
	"repro/internal/ustm"
)

// TestChromeSinkTruncatesSpanAtRetryWake: the one live producer of a
// begin while a span is open is a USTM Retry wake-up, which retires the
// waiting attempt with no sw-commit or sw-abort. On the examples/retrywait
// shape — producers and consumers around a queue too small for either
// side not to wait — the Chrome sink closes exactly one "sw-tx" span as
// truncated per suspension, at the cycle the transaction is re-issued,
// and leaves nothing open at Close.
func TestChromeSinkTruncatesSpanAtRetryWake(t *testing.T) {
	const items = 40
	m := machine.New(machine.DefaultParams(4))
	var chrome bytes.Buffer
	sink := machine.NewChromeSink(&chrome)
	m.Observe(machine.TraceKinds, sink)
	waits := new(tmtest.EventLog)
	m.Observe(machine.KindSet(machine.TraceTxRetryWait), waits)
	sys := core.New(m, ustm.DefaultConfig(), core.Policy{}, cm.KindExponential)
	q := txlib.NewQueue(txlib.Direct{M: m}, txlib.NewArena(m, nil, 1<<12), 2)
	popped := 0
	worker := func(proc int, body func(tm.Tx)) func(*machine.Proc) {
		ex := sys.Exec(m.Proc(proc))
		return func(p *machine.Proc) {
			for i := 0; i < items/2; i++ {
				ex.Atomic(body)
				p.Elapse(uint64(30 + p.Rand().Intn(80)))
			}
		}
	}
	push := func(tx tm.Tx) { q.Push(tx, 7) }
	pop := func(tx tm.Tx) {
		q.Pop(tx)
		tx.OnCommit(func() { popped++ })
	}
	m.Run([]func(*machine.Proc){worker(0, push), worker(1, push), worker(2, pop), worker(3, pop)})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if popped != items || len(waits.Events) == 0 {
		t.Fatalf("popped %d of %d items over %d retry suspensions; the shape must wait at least once", popped, items, len(waits.Events))
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   uint64
			Dur  uint64
			Tid  int
			Args struct{ Outcome, Path string }
		}
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not one JSON document: %v", err)
	}
	truncated := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || (e.Args.Outcome != "truncated" && e.Args.Path != "truncated") {
			continue
		}
		if e.Name != "sw-tx" || e.Dur == 0 {
			t.Errorf("truncated span %+v: want a sw-tx closed at its re-issue, not one flushed open at Close", e)
		}
		truncated++
	}
	if truncated != len(waits.Events) {
		t.Errorf("%d truncated sw-tx spans for %d retry suspensions", truncated, len(waits.Events))
	}
}
