package txstats

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/machine"
)

// The lifecycle events as the machine's TxLife* emitters build them.
func begin(proc int, cycle uint64) machine.TraceEvent {
	return machine.TraceEvent{Kind: machine.TraceTxBegin, Proc: proc, Cycle: cycle}
}
func attempt(proc int, path machine.TxPath, cycle uint64) machine.TraceEvent {
	return machine.TraceEvent{Kind: machine.TraceTxAttempt, Proc: proc, Path: path, Cycle: cycle}
}
func abort(proc int, path machine.TxPath, reason machine.AbortReason, cycle uint64) machine.TraceEvent {
	return machine.TraceEvent{Kind: machine.TraceTxAbort, Proc: proc, Path: path, Reason: reason, Cycle: cycle}
}
func retryWait(proc int, cycle uint64) machine.TraceEvent {
	return machine.TraceEvent{Kind: machine.TraceTxRetryWait, Proc: proc, Cycle: cycle}
}
func backoff(proc int, cycles uint64) machine.TraceEvent {
	return machine.TraceEvent{Kind: machine.TraceTxBackoff, Proc: proc, Arg: cycles}
}
func commit(proc int, path machine.TxPath, cycle uint64) machine.TraceEvent {
	return machine.TraceEvent{Kind: machine.TraceTxCommit, Proc: proc, Path: path, Cycle: cycle}
}
func conflict(victim, aggressor int) machine.TraceEvent {
	return machine.TraceEvent{Kind: machine.TraceConflict, Proc: victim, Peer: aggressor}
}

// script drives a recorder through a hand-computed two-processor run:
//
//	proc 0: begin@10, HTM attempt@12, conflict(agg=1), abort coherence@20
//	        (wasted 8), backoff 5, HTM attempt@25, commit@40 (useful 15)
//	proc 1: begin@10, HTM attempt@10, commit@30 (useful 20)
//
// proc 0 latency 30 = useful 15 + wasted 8 + backoff 5 + overhead 2.
// proc 1 latency 20 = useful 20.
func script(r *Recorder) {
	r.Event(begin(0, 10))
	r.Event(begin(1, 10))
	r.Event(attempt(1, machine.PathHTM, 10))
	r.Event(attempt(0, machine.PathHTM, 12))
	r.Event(conflict(0, 1))
	r.Event(abort(0, machine.PathHTM, machine.AbortConflict, 20))
	r.Event(backoff(0, 5))
	r.Event(attempt(0, machine.PathHTM, 25))
	r.Event(commit(1, machine.PathHTM, 30))
	r.Event(commit(0, machine.PathHTM, 40))
}

func TestRecorderAccounting(t *testing.T) {
	r := New(2)
	script(r)
	rep := r.Report()
	if rep.Begun != 2 || rep.Committed != 2 || rep.InFlight != 0 {
		t.Fatalf("counts = %d/%d/%d", rep.Begun, rep.Committed, rep.InFlight)
	}
	if rep.UsefulCycles != 35 || rep.WastedCycles != 8 || rep.BackoffCycles != 5 || rep.OverheadCycles != 2 {
		t.Fatalf("cycle split = useful %d wasted %d backoff %d overhead %d",
			rep.UsefulCycles, rep.WastedCycles, rep.BackoffCycles, rep.OverheadCycles)
	}
	// The identity: committed latencies sum to the full split.
	totalLat := rep.UsefulCycles + rep.WastedCycles + rep.BackoffCycles + rep.RetryWaitCycles + rep.OverheadCycles
	if totalLat != 30+20 {
		t.Fatalf("latency identity broken: split sums to %d, want 50", totalLat)
	}
	if rep.Latency.Count != 2 || rep.Latency.Sum != 50 || rep.Latency.Max != 30 {
		t.Fatalf("latency hist = %+v", rep.Latency)
	}
	if rep.LatencyPercentiles == nil || rep.LatencyPercentiles.P999 > float64(rep.Latency.Max) {
		t.Fatalf("percentiles = %+v", rep.LatencyPercentiles)
	}
	if rep.Attempts.Count != 2 || rep.Attempts.Sum != 3 {
		t.Fatalf("attempts hist = %+v", rep.Attempts)
	}
	if len(rep.CommitsByPath) != 1 || rep.CommitsByPath[0] != (PathCount{Path: "htm", Count: 2}) {
		t.Fatalf("commits by path = %+v", rep.CommitsByPath)
	}
	if len(rep.Aborts) != 1 {
		t.Fatalf("aborts = %+v", rep.Aborts)
	}
	ab := rep.Aborts[0]
	if ab.Path != "htm" || ab.Reason != machine.AbortConflict.String() || ab.Count != 1 || ab.WastedCycles != 8 {
		t.Fatalf("abort bucket = %+v", ab)
	}
	// The wasted 8 cycles are charged to aggressor proc 1.
	if len(rep.AggressorWasted) != 1 || rep.AggressorWasted[0] != (ProcCycles{Proc: 1, Cycles: 8}) {
		t.Fatalf("aggressor wasted = %+v (unknown %d)", rep.AggressorWasted, rep.UnknownWasted)
	}
}

func TestRecorderRetryWait(t *testing.T) {
	r := New(1)
	r.Event(begin(0, 0))
	r.Event(attempt(0, machine.PathSW, 0))
	r.Event(retryWait(0, 8))
	r.Event(attempt(0, machine.PathSW, 50)) // waited 0..50
	r.Event(commit(0, machine.PathSW, 60))
	rep := r.Report()
	if rep.RetryWaits != 1 || rep.RetryWaitCycles != 50 {
		t.Fatalf("retry wait = %d waits, %d cycles", rep.RetryWaits, rep.RetryWaitCycles)
	}
	if rep.UsefulCycles != 10 || rep.WastedCycles != 0 || rep.OverheadCycles != 0 {
		t.Fatalf("split = useful %d wasted %d overhead %d",
			rep.UsefulCycles, rep.WastedCycles, rep.OverheadCycles)
	}
}

func TestRecorderInFlight(t *testing.T) {
	r := New(1)
	r.Event(begin(0, 0))
	r.Event(attempt(0, machine.PathUFO, 0))
	r.Event(abort(0, machine.PathUFO, machine.AbortExplicit, 30))
	rep := r.Report()
	if rep.Begun != 1 || rep.Committed != 0 || rep.InFlight != 1 {
		t.Fatalf("counts = %d/%d/%d", rep.Begun, rep.Committed, rep.InFlight)
	}
	// Wasted cycles of a never-committed tx still attribute; with no
	// conflict recorded they land in UnknownWasted.
	if rep.WastedCycles != 30 || rep.UnknownWasted != 30 {
		t.Fatalf("wasted = %d, unknown = %d", rep.WastedCycles, rep.UnknownWasted)
	}
	if rep.Latency != nil {
		t.Fatalf("latency hist should be absent with no commits: %+v", rep.Latency)
	}
}

// TestReportAddCommutative: merging cell reports in either order encodes
// byte-identically — the property parallel sweep aggregation relies on.
func TestReportAddCommutative(t *testing.T) {
	mk := func(n int) *Report {
		r := New(2)
		for i := 0; i < n; i++ {
			script(r)
		}
		return r.Report()
	}
	enc := func(rep *Report) []byte {
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ab, ba := mk(1), mk(3)
	ab.Add(mk(3))
	ba.Add(mk(1))
	if !bytes.Equal(enc(ab), enc(ba)) {
		t.Fatalf("merge order changed encoding:\n%s\nvs\n%s", enc(ab), enc(ba))
	}
	if ab.Committed != 8 {
		t.Fatalf("merged committed = %d, want 8", ab.Committed)
	}
	if ab.Latency.Count != 8 || ab.Latency.Sum != 4*50 {
		t.Fatalf("merged latency = %+v", ab.Latency)
	}
	if ab.LatencyPercentiles == nil {
		t.Fatal("merged report lost percentiles")
	}
	// Add into an empty report copies rather than aliasing.
	var zero Report
	zero.Add(mk(1))
	if zero.Committed != 2 || zero.Latency == nil {
		t.Fatalf("merge into zero report = %+v", zero)
	}
}

// TestRecorderIgnoresStray: events for out-of-range processors or with
// no transaction in flight are dropped rather than corrupting state.
func TestRecorderIgnoresStray(t *testing.T) {
	r := New(1)
	r.Event(attempt(0, machine.PathHTM, 5)) // no begin
	r.Event(commit(0, machine.PathHTM, 9))
	r.Event(begin(7, 0)) // out of range
	r.Event(abort(-1, machine.PathHTM, machine.AbortConflict, 3))
	rep := r.Report()
	if rep.Begun != 0 || rep.Committed != 0 || rep.WastedCycles != 0 {
		t.Fatalf("stray events recorded: %+v", rep)
	}
}

// TestRecorderArrival: a tx-arrival event tags the next tx-begin on its
// processor, so response time starts at the arrival and queueing delay
// is arrival to begin; an untagged transaction adds no request.
func TestRecorderArrival(t *testing.T) {
	r := New(1)
	r.Event(machine.TraceEvent{Kind: machine.TraceTxArrival, Proc: 0, Arg: 4})
	r.Event(begin(0, 10))
	r.Event(attempt(0, machine.PathHTM, 10))
	r.Event(commit(0, machine.PathHTM, 40))
	r.Event(begin(0, 50))
	r.Event(attempt(0, machine.PathHTM, 50))
	r.Event(commit(0, machine.PathHTM, 60))
	rep := r.Report()
	if rep.Committed != 2 || rep.Requests != 1 {
		t.Fatalf("committed/requests = %d/%d, want 2/1", rep.Committed, rep.Requests)
	}
	if rep.Response.Sum != 36 || rep.QueueWait.Sum != 6 {
		t.Fatalf("response %d queue wait %d, want 36 and 6", rep.Response.Sum, rep.QueueWait.Sum)
	}
}
