// Package txstats implements per-transaction lifecycle accounting for
// the simulated machine: a recorder of begin/attempt/abort/commit events
// — fed by every TM system's Atomic loop through the Proc.TxLife* hooks
// — aggregated into a deterministic profile of transaction latency
// (commit-to-commit wall cycles, wide power-of-two histogram),
// retries-to-commit, and a wasted-work breakdown that splits every
// committed transaction's cycles into useful work, wasted (aborted)
// attempts, contention-management backoff, Retry waiting, and residual
// overhead.
//
// This is the measurement layer behind the paper's §5 discussion of
// where hybrid-TM time goes: Figure 5 reports throughput, but explaining
// *why* a configuration wins needs the latency distribution and the
// cycles destroyed by each abort cause on each execution path (HTM, UFO,
// software, serialized fallback). The wasted-work attribution is
// cross-linked to the conflict edges internal/contention records: the
// recorder remembers each victim's most recent aggressor and charges the
// aborted attempt's cycles to that processor.
//
// Recorder is a machine.Observer of the tx-* lifecycle events and the
// conflict event (the machine defines the interface so the dependency
// points outward; subscribe with m.Observe(txstats.Kinds, recorder)).
// Aggregation is deterministic: the engine serializes the emitters in
// schedule order, and Report freezes every accumulator into
// declaration-ordered or sorted slices, so equal runs produce
// byte-identical reports.
package txstats

import (
	"repro/internal/machine"
	"repro/internal/obs"
)

// txState tracks one processor's in-flight transaction.
type txState struct {
	active       bool
	hasArrival   bool   // open-loop request: arrival is valid
	arrival      uint64 // request arrival cycle (tx-arrival)
	begin        uint64 // cycle of tx-begin
	attempts     uint64 // attempts so far (including the current one)
	attemptStart uint64 // cycle the current attempt (or Retry wait) started
	waiting      bool   // suspended in Retry: attemptStart..next attempt is wait time
	wasted       uint64 // cycles in aborted attempts so far
	backoff      uint64 // cycles in cm backoff so far
	retryWait    uint64 // cycles suspended in Retry so far
	aggressor    int    // most recent conflict aggressor, -1 if none
}

// Recorder is the accumulating side of the lifecycle subsystem: one per
// machine run. It implements machine.Observer. Like obs.Snapshot it is
// not safe for concurrent use — the simulation engine serializes
// processors, and parallel sweeps give every cell its own Recorder.
type Recorder struct {
	procs int
	tx    []txState

	begun     uint64
	committed uint64

	commitsByPath  [machine.NumTxPaths]uint64
	attemptsByPath [machine.NumTxPaths]uint64
	aborts         [machine.NumTxPaths][machine.NumAbortReasons]uint64
	wastedBy       [machine.NumTxPaths][machine.NumAbortReasons]uint64

	usefulCycles    uint64
	wastedCycles    uint64
	backoffCycles   uint64
	retryWaitCycles uint64
	overheadCycles  uint64
	retryWaits      uint64

	aggressorWasted []uint64 // per aggressor proc: cycles their conflicts destroyed
	unknownWasted   uint64   // wasted cycles with no recorded aggressor

	latency  obs.Histogram // per committed tx: commit cycle - begin cycle
	attempts obs.Histogram // per committed tx: attempts to commit

	// Open-loop request accounting (fed by Proc.TxLifeArrival; zero for
	// closed-loop workloads, which never tag arrivals).
	pendingArrival []uint64 // per proc: arrival cycle awaiting the next tx-begin
	pendingValid   []bool
	requests       uint64
	response       obs.Histogram // per request: commit cycle - arrival cycle
	queueWait      obs.Histogram // per request: begin cycle - arrival cycle
}

// Kinds is what a Recorder subscribes to: the lifecycle events, and the
// conflict event so the next abort can charge its wasted cycles to the
// aggressor.
var Kinds = machine.KindSet(
	machine.TraceTxArrival, machine.TraceTxBegin, machine.TraceTxAttempt,
	machine.TraceTxAbort, machine.TraceTxRetryWait, machine.TraceTxBackoff,
	machine.TraceTxCommit, machine.TraceConflict)

// New returns an empty recorder for a machine with the given processor
// count.
func New(procs int) *Recorder {
	if procs < 1 {
		procs = 1
	}
	r := &Recorder{
		procs:           procs,
		tx:              make([]txState, procs),
		aggressorWasted: make([]uint64, procs),
		pendingArrival:  make([]uint64, procs),
		pendingValid:    make([]bool, procs),
	}
	for i := range r.tx {
		r.tx[i].aggressor = -1
	}
	return r
}

// Event implements machine.Observer. Events for out-of-range processors,
// or that need a transaction in flight and find none, are dropped.
func (r *Recorder) Event(e machine.TraceEvent) {
	proc := e.Proc
	if proc < 0 || proc >= r.procs {
		return
	}
	t := &r.tx[proc]
	switch e.Kind {
	case machine.TraceTxArrival:
		// The next tx-begin on proc services an open-loop request that
		// arrived at cycle e.Arg.
		r.pendingArrival[proc] = e.Arg
		r.pendingValid[proc] = true
	case machine.TraceTxBegin:
		r.begun++
		*t = txState{active: true, begin: e.Cycle, attemptStart: e.Cycle, aggressor: -1,
			hasArrival: r.pendingValid[proc], arrival: r.pendingArrival[proc]}
		r.pendingValid[proc] = false
	case machine.TraceConflict:
		// proc's in-flight attempt was killed by e.Peer (-1 unknown): the
		// next tx-abort charges its wasted cycles to that aggressor.
		t.aggressor = e.Peer
	}
	if !t.active {
		return // the remaining kinds need a transaction in flight
	}
	switch e.Kind {
	case machine.TraceTxAttempt:
		r.attempt(t, e.Path, e.Cycle)
	case machine.TraceTxAbort:
		r.abort(t, e.Path, e.Reason, e.Cycle)
	case machine.TraceTxRetryWait:
		r.retryWaits++
		t.waiting = true
	case machine.TraceTxBackoff:
		t.backoff += e.Arg
		r.backoffCycles += e.Arg
	case machine.TraceTxCommit:
		r.commit(t, e.Path, e.Cycle)
	}
}

// attempt starts one attempt on the given path.
func (r *Recorder) attempt(t *txState, path machine.TxPath, cycle uint64) {
	if t.waiting {
		// The whole interval since the Retry attempt started counts as
		// transactional waiting, not wasted work.
		w := cycle - t.attemptStart
		t.retryWait += w
		r.retryWaitCycles += w
		t.waiting = false
	}
	t.attempts++
	t.attemptStart = cycle
	if int(path) < len(r.attemptsByPath) {
		r.attemptsByPath[path]++
	}
}

// abort ends the attempt started by the last tx-attempt as failed.
func (r *Recorder) abort(t *txState, path machine.TxPath, reason machine.AbortReason, cycle uint64) {
	w := cycle - t.attemptStart
	t.wasted += w
	r.wastedCycles += w
	if int(path) < len(r.aborts) && int(reason) < len(r.aborts[path]) {
		r.aborts[path][reason]++
		r.wastedBy[path][reason] += w
	}
	if t.aggressor >= 0 && t.aggressor < r.procs {
		r.aggressorWasted[t.aggressor] += w
	} else {
		r.unknownWasted += w
	}
	t.aggressor = -1
	// Anything until the next attempt (backoff aside) is overhead.
	t.attemptStart = cycle
}

// commit ends the transaction; path is the committing attempt's.
func (r *Recorder) commit(t *txState, path machine.TxPath, cycle uint64) {
	r.committed++
	if int(path) < len(r.commitsByPath) {
		r.commitsByPath[path]++
	}
	lat := cycle - t.begin
	useful := cycle - t.attemptStart
	r.usefulCycles += useful
	// The intervals are disjoint sub-ranges of [begin, commit], so the
	// residual is non-negative: begin-to-first-attempt setup plus
	// abort-to-retry gaps not spent in cm backoff.
	r.overheadCycles += lat - useful - t.wasted - t.backoff - t.retryWait
	r.latency.Observe(lat)
	r.attempts.Observe(t.attempts)
	if t.hasArrival {
		// Open-loop request: response time spans arrival to commit —
		// queueing delay (arrival to begin, accrued when the proc was
		// backlogged past the arrival cycle) plus service.
		r.requests++
		r.response.Observe(cycle - t.arrival)
		r.queueWait.Observe(t.begin - t.arrival)
	}
	*t = txState{aggressor: -1}
}
