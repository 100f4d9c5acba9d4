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

// TestChromeSinkEndsSpanAtRetryWait: a USTM Retry wake-up retires the
// waiting attempt with a tx-retry-wait, not an abort or a commit. On the
// examples/retrywait shape — producers and consumers around a queue too
// small for either side not to wait — the Chrome sink ends exactly one
// "ufo" attempt span with outcome "retry" per suspension, at the cycle
// of its tx-retry-wait, and leaves nothing open at Close.
func TestChromeSinkEndsSpanAtRetryWait(t *testing.T) {
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
	ends := map[[2]uint64]bool{} // (proc, cycle) of every tx-retry-wait
	for _, e := range waits.Events {
		ends[[2]uint64{uint64(e.Proc), e.Cycle}] = true
	}
	retried := 0
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph != "X":
		case e.Args.Outcome == "truncated" || e.Args.Path == "truncated":
			t.Errorf("span %+v left open at Close", e)
		case e.Args.Outcome == "retry":
			if e.Name != "ufo" || !ends[[2]uint64{uint64(e.Tid), e.Ts + e.Dur}] {
				t.Errorf("retry span %+v: want a ufo attempt ending at a tx-retry-wait", e)
			}
			retried++
		}
	}
	if retried != len(waits.Events) {
		t.Errorf("%d retry spans for %d retry suspensions", retried, len(waits.Events))
	}
}
