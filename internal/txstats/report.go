package txstats

import (
	"sort"

	"repro/internal/machine"
	"repro/internal/obs"
)

// PathCount is one execution path's count (commits or attempts). Paths
// appear in machine.TxPath declaration order, zero counts omitted.
type PathCount struct {
	Path  string `json:"path"`
	Count uint64 `json:"count"`
}

// AbortBucket is one (path, reason) cell of the wasted-work breakdown:
// how many attempts aborted there and how many simulated cycles they
// burned. Cells appear in path-major declaration order, empty cells
// omitted.
type AbortBucket struct {
	Path         string `json:"path"`
	Reason       string `json:"reason"`
	Count        uint64 `json:"count"`
	WastedCycles uint64 `json:"wasted_cycles"`
}

// ProcCycles is one processor's share of destroyed cycles: the wasted
// cycles of aborted attempts whose most recent conflict named this
// processor as the aggressor (the cross-link to internal/contention's
// who-aborted-whom edges).
type ProcCycles struct {
	Proc   int    `json:"proc"`
	Cycles uint64 `json:"cycles"`
}

// Percentiles is the latency summary rendered from the wide histogram,
// in simulated cycles.
type Percentiles struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
}

// Report is a frozen, deterministic view of a Recorder: every internal
// array flattened into declaration-ordered or sorted slices with a fixed
// JSON field order, so equal recorders encode byte-identically (the same
// contract as obs.Snapshot and contention.Report).
type Report struct {
	Procs int `json:"procs"`

	Begun     uint64 `json:"begun"`
	Committed uint64 `json:"committed"`
	// InFlight counts transactions begun but not committed when the run
	// ended; their partial cycles appear in the wasted/backoff totals but
	// not in the latency histogram.
	InFlight uint64 `json:"in_flight"`

	CommitsByPath  []PathCount `json:"commits_by_path"`
	AttemptsByPath []PathCount `json:"attempts_by_path"`

	// The cycle split across committed work: Useful is the committing
	// attempts, Wasted the aborted attempts, Backoff the cm delays,
	// RetryWait the Retry suspensions, Overhead the committed-tx residual
	// (setup and abort-to-retry gaps). Wasted and Backoff include
	// in-flight transactions; Useful and Overhead only committed ones.
	UsefulCycles    uint64 `json:"useful_cycles"`
	WastedCycles    uint64 `json:"wasted_cycles"`
	BackoffCycles   uint64 `json:"backoff_cycles"`
	RetryWaitCycles uint64 `json:"retry_wait_cycles"`
	OverheadCycles  uint64 `json:"overhead_cycles"`
	RetryWaits      uint64 `json:"retry_waits"`

	Aborts []AbortBucket `json:"aborts"`

	// AggressorWasted ranks processors by the cycles their conflicts
	// destroyed (descending, processor ID breaking ties); zero entries
	// omitted. UnknownWasted counts wasted cycles with no recorded
	// aggressor.
	AggressorWasted []ProcCycles `json:"aggressor_wasted"`
	UnknownWasted   uint64       `json:"unknown_wasted"`

	// Latency is the wide per-commit latency histogram;
	// LatencyPercentiles its rendered summary. Attempts is the
	// attempts-to-commit distribution.
	Latency            *obs.HistSnapshot `json:"latency,omitempty"`
	LatencyPercentiles *Percentiles      `json:"latency_percentiles,omitempty"`
	Attempts           *obs.HistSnapshot `json:"attempts,omitempty"`

	// Open-loop request accounting: Requests counts arrival-tagged
	// commits, Response is the arrival-to-commit distribution (queueing +
	// service — what a service SLO is written against; compare with
	// Latency, which starts at begin and so excludes queueing), QueueWait
	// the arrival-to-begin share. All zero/absent for closed-loop
	// workloads.
	Requests            uint64            `json:"requests,omitempty"`
	Response            *obs.HistSnapshot `json:"response,omitempty"`
	ResponsePercentiles *Percentiles      `json:"response_percentiles,omitempty"`
	QueueWait           *obs.HistSnapshot `json:"queue_wait,omitempty"`
}

// pathCounts freezes a per-path counter array (declaration order, zeros
// omitted).
func pathCounts(a *[machine.NumTxPaths]uint64) []PathCount {
	var out []PathCount
	for p, n := range a {
		if n != 0 {
			out = append(out, PathCount{Path: machine.TxPath(p).String(), Count: n})
		}
	}
	return out
}

// abortBuckets freezes the per-(path, reason) abort counts and wasted
// cycles (path-major declaration order, empty cells omitted).
func abortBuckets(count, wasted *[machine.NumTxPaths][machine.NumAbortReasons]uint64) []AbortBucket {
	var out []AbortBucket
	for p := range count {
		for reason := range count[p] {
			if count[p][reason] == 0 && wasted[p][reason] == 0 {
				continue
			}
			out = append(out, AbortBucket{
				Path:         machine.TxPath(p).String(),
				Reason:       machine.AbortReason(reason).String(),
				Count:        count[p][reason],
				WastedCycles: wasted[p][reason],
			})
		}
	}
	return out
}

// percentiles renders the latency summary, nil for an empty histogram.
func percentiles(h *obs.HistSnapshot) *Percentiles {
	if h == nil || h.Count == 0 {
		return nil
	}
	return &Percentiles{P50: h.P50(), P90: h.P90(), P99: h.P99(), P999: h.P999()}
}

// Report freezes the recorder into its deterministic exportable form.
func (r *Recorder) Report() *Report {
	rep := &Report{
		Procs:           r.procs,
		Begun:           r.begun,
		Committed:       r.committed,
		InFlight:        r.begun - r.committed,
		CommitsByPath:   pathCounts(&r.commitsByPath),
		AttemptsByPath:  pathCounts(&r.attemptsByPath),
		UsefulCycles:    r.usefulCycles,
		WastedCycles:    r.wastedCycles,
		BackoffCycles:   r.backoffCycles,
		RetryWaitCycles: r.retryWaitCycles,
		OverheadCycles:  r.overheadCycles,
		RetryWaits:      r.retryWaits,
		UnknownWasted:   r.unknownWasted,
	}
	rep.Aborts = abortBuckets(&r.aborts, &r.wastedBy)
	for proc, c := range r.aggressorWasted {
		if c != 0 {
			rep.AggressorWasted = append(rep.AggressorWasted, ProcCycles{Proc: proc, Cycles: c})
		}
	}
	sortProcCycles(rep.AggressorWasted)
	if r.latency.Count() > 0 {
		rep.Latency = r.latency.Snapshot()
		rep.LatencyPercentiles = percentiles(rep.Latency)
	}
	if r.attempts.Count() > 0 {
		rep.Attempts = r.attempts.Snapshot()
	}
	if r.requests > 0 {
		rep.Requests = r.requests
		rep.Response = r.response.Snapshot()
		rep.ResponsePercentiles = percentiles(rep.Response)
		rep.QueueWait = r.queueWait.Snapshot()
	}
	return rep
}

// WastedShare is the fraction of transactional cycles that bought
// nothing — aborted attempts plus backoff over the five-way split — or
// 0 when no cycles were recorded.
func (rep *Report) WastedShare() float64 {
	total := rep.UsefulCycles + rep.WastedCycles + rep.BackoffCycles +
		rep.RetryWaitCycles + rep.OverheadCycles
	if total == 0 {
		return 0
	}
	return float64(rep.WastedCycles+rep.BackoffCycles) / float64(total)
}

// sortProcCycles orders by cycles descending, processor ascending.
func sortProcCycles(s []ProcCycles) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Cycles != s[j].Cycles {
			return s[i].Cycles > s[j].Cycles
		}
		return s[i].Proc < s[j].Proc
	})
}

// Add merges other into rep: counts and cycle totals sum, per-path and
// per-(path,reason) breakdowns sum in declaration order, the
// aggressor-wasted ranking sums per processor and re-sorts, and the
// latency/attempts histograms merge bucket-wise with percentiles
// recomputed from the merged latency histogram. Summation is
// commutative, so aggregating parallel sweep cells in job order stays
// deterministic.
func (rep *Report) Add(other *Report) {
	if other == nil {
		return
	}
	if other.Procs > rep.Procs {
		rep.Procs = other.Procs
	}
	rep.Begun += other.Begun
	rep.Committed += other.Committed
	rep.InFlight += other.InFlight
	rep.CommitsByPath = mergePaths(rep.CommitsByPath, other.CommitsByPath)
	rep.AttemptsByPath = mergePaths(rep.AttemptsByPath, other.AttemptsByPath)
	rep.UsefulCycles += other.UsefulCycles
	rep.WastedCycles += other.WastedCycles
	rep.BackoffCycles += other.BackoffCycles
	rep.RetryWaitCycles += other.RetryWaitCycles
	rep.OverheadCycles += other.OverheadCycles
	rep.RetryWaits += other.RetryWaits
	rep.Aborts = mergeAborts(rep.Aborts, other.Aborts)
	rep.UnknownWasted += other.UnknownWasted

	perProc := make(map[int]uint64, len(rep.AggressorWasted)+len(other.AggressorWasted))
	for _, pc := range rep.AggressorWasted {
		perProc[pc.Proc] += pc.Cycles
	}
	for _, pc := range other.AggressorWasted {
		perProc[pc.Proc] += pc.Cycles
	}
	rep.AggressorWasted = rep.AggressorWasted[:0]
	for proc, c := range perProc {
		rep.AggressorWasted = append(rep.AggressorWasted, ProcCycles{Proc: proc, Cycles: c})
	}
	sortProcCycles(rep.AggressorWasted)

	rep.Latency = rep.Latency.Add(other.Latency)
	rep.LatencyPercentiles = percentiles(rep.Latency)
	rep.Attempts = rep.Attempts.Add(other.Attempts)
	rep.Requests += other.Requests
	rep.Response = rep.Response.Add(other.Response)
	rep.ResponsePercentiles = percentiles(rep.Response)
	rep.QueueWait = rep.QueueWait.Add(other.QueueWait)
}

// mergePaths sums two frozen path lists, preserving declaration order.
func mergePaths(a, b []PathCount) []PathCount {
	var sum [machine.NumTxPaths]uint64
	for _, lst := range [][]PathCount{a, b} {
		for _, pc := range lst {
			if p, ok := machine.TxPathByName(pc.Path); ok {
				sum[p] += pc.Count
			}
		}
	}
	return pathCounts(&sum)
}

// mergeAborts sums two frozen abort breakdowns, preserving path-major
// declaration order.
func mergeAborts(a, b []AbortBucket) []AbortBucket {
	var count, wasted [machine.NumTxPaths][machine.NumAbortReasons]uint64
	for _, lst := range [][]AbortBucket{a, b} {
		for _, ab := range lst {
			p, ok := machine.TxPathByName(ab.Path)
			if !ok {
				continue
			}
			// Unknown names land on AbortNone, which real aborts never carry.
			reason, _ := machine.AbortReasonByName(ab.Reason)
			count[p][reason] += ab.Count
			wasted[p][reason] += ab.WastedCycles
		}
	}
	return abortBuckets(&count, &wasted)
}
