package machine

import (
	"strings"
	"testing"

	"repro/internal/mem"
)

func TestTraceRecordsLifecycle(t *testing.T) {
	m := New(testParams(1))
	tr := observe(m, TraceKinds)
	var text strings.Builder
	sink := NewTextSink(&text)
	m.Observe(TraceKinds, sink)
	m.Run([]func(*Proc){func(p *Proc) {
		age := m.NextAge()
		p.TxLifeBegin(age)
		p.TxLifeAttempt(PathHTM)
		p.BeginHW(age, true)
		p.TxWrite(0, 1)
		p.TxLifeAbort(PathHTM, p.AbortHW(AbortExplicit, -1, 0, false), false)
		p.TxLifeAttempt(PathHTM)
		p.BeginHW(age, true)
		p.TxWrite(0, 2)
		p.CommitHW()
		p.TxLifeCommit(PathHTM, false)
	}})
	events := tr.events
	var kinds []TraceKind
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	want := []TraceKind{TraceTxBegin, TraceTxAttempt, TraceConflict, TraceTxAbort, TraceTxAttempt, TraceTxCommit}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	if !events[0].HasAge() || events[0].Age != 1 {
		t.Fatalf("tx-begin = %v, want age 1", events[0])
	}
	if c, a := events[2], events[3]; c.Reason != AbortExplicit || c.Peer != 0 || a.Reason != AbortExplicit || a.SW() {
		t.Fatalf("conflict %v, abort %v: want a self-inflicted explicit hardware abort", c, a)
	}
	if err := sink.Close(); err != nil || strings.Count(text.String(), "\n") != 6 || !strings.Contains(text.String(), "tx-commit     path=htm sw=false") {
		t.Fatalf("text sink (err %v) missing events:\n%s", err, text.String())
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	m := New(testParams(1))
	if m.out.want != 0 || len(m.out.subs) != 0 {
		t.Fatalf("a new machine has observers: %+v", m.out)
	}
	m.Run([]func(*Proc){func(p *Proc) {
		p.BeginHW(m.NextAge(), true)
		p.CommitHW()
	}})
}

func TestTraceUFOEvents(t *testing.T) {
	m := New(testParams(1))
	tr := observe(m, TraceKinds)
	m.Run([]func(*Proc){func(p *Proc) {
		p.SetUFOEnabled(false)
		p.SetUFO(0, mem.UFOFaultAll)
		p.SetUFOEnabled(true)
		p.NTRead(0) // faults
	}})
	var sets, faults int
	for _, e := range tr.events {
		switch e.Kind {
		case TraceUFOSet:
			sets++
		case TraceUFOFault:
			faults++
		}
	}
	if sets != 1 || faults != 1 {
		t.Fatalf("sets=%d faults=%d, want 1/1", sets, faults)
	}
}
