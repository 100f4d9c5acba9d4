package contention

import (
	"sort"

	"repro/internal/machine"
	"repro/internal/obs"
)

// ReasonCount is one abort reason's edge count. Reasons appear in
// machine.AbortReason declaration order, zero counts omitted.
type ReasonCount struct {
	Reason string `json:"reason"`
	Count  uint64 `json:"count"`
}

// ProcCount is one processor's edge count on a hot line. Proc is -1 for
// edges whose aggressor could not be identified.
type ProcCount struct {
	Proc  int    `json:"proc"`
	Count uint64 `json:"count"`
}

// HotLine is one contended cache line's profile. Aggressors and Victims
// are sorted by count (descending, processor ID breaking ties), so the
// first entries name the line's dominant conflict pair.
type HotLine struct {
	Addr       uint64        `json:"addr"`
	Total      uint64        `json:"total"`
	ByReason   []ReasonCount `json:"by_reason"`
	Aggressors []ProcCount   `json:"aggressors"`
	Victims    []ProcCount   `json:"victims"`
}

// Window is one time-series interval: events whose cycle c satisfies
// c/W == Index. The series is dense from window 0 through the last window
// with any event, so consumers can plot it without gap handling.
type Window struct {
	Index      uint64        `json:"index"`
	StartCycle uint64        `json:"start_cycle"`
	HWCommits  uint64        `json:"hw_commits"`
	SWCommits  uint64        `json:"sw_commits"`
	Aborts     uint64        `json:"aborts"`
	SWAborts   uint64        `json:"sw_aborts"`
	ByReason   []ReasonCount `json:"by_reason,omitempty"`
}

// Report is a frozen, deterministic view of a Profile: every internal map
// flattened into sorted slices with a fixed JSON field order, so equal
// profiles encode byte-identically (the same contract as obs.Snapshot).
type Report struct {
	Procs        int    `json:"procs"`
	WindowCycles uint64 `json:"window_cycles"`

	Edges            uint64 `json:"edges"`
	SWEdges          uint64 `json:"sw_edges"`
	NoAddrEdges      uint64 `json:"no_addr_edges"`
	UnknownAggressor uint64 `json:"unknown_aggressor_edges"`
	HWCommits        uint64 `json:"hw_commits"`
	SWCommits        uint64 `json:"sw_commits"`

	ByReason []ReasonCount `json:"by_reason"`
	// HotLines holds the top-K lines by edge count; DroppedLines counts
	// the contended lines beyond K (never silently truncated away).
	HotLines     []HotLine `json:"hot_lines"`
	DroppedLines int       `json:"dropped_lines"`
	// Matrix[a][v] counts edges where processor a aborted processor v.
	Matrix  [][]uint64 `json:"matrix"`
	Windows []Window   `json:"windows"`
	// WindowAbortHist is the distribution of aborts per window (including
	// empty windows), the input to the report's percentile lines.
	WindowAbortHist *obs.HistSnapshot `json:"window_abort_hist,omitempty"`
}

// reasonCounts freezes a per-reason counter array (declaration order,
// zeros omitted).
func reasonCounts(a *[machine.NumAbortReasons]uint64) []ReasonCount {
	var out []ReasonCount
	for r, n := range a {
		if n != 0 {
			out = append(out, ReasonCount{Reason: machine.AbortReason(r).String(), Count: n})
		}
	}
	return out
}

// procCounts freezes a per-processor counter map sorted by count
// descending, processor ascending.
func procCounts(m map[int]uint64) []ProcCount {
	out := make([]ProcCount, 0, len(m))
	for p, n := range m {
		out = append(out, ProcCount{Proc: p, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Proc < out[j].Proc
	})
	return out
}

// Report freezes the profile into its deterministic exportable form,
// keeping the TopK hottest lines; its commit totals are the run's
// lifecycle tally c (the machine's Count).
func (pr *Profile) Report(c *machine.Counters) *Report {
	rep := &Report{
		Procs:            pr.procs,
		WindowCycles:     WindowCycles,
		Edges:            pr.edges,
		SWEdges:          pr.swEdges,
		NoAddrEdges:      pr.noAddr,
		UnknownAggressor: pr.unknownAgg,
		HWCommits:        c.HWCommits,
		SWCommits:        c.SWCommits,
		ByReason:         reasonCounts(&pr.byReason),
	}

	rep.Matrix = make([][]uint64, pr.procs)
	for a := 0; a < pr.procs; a++ {
		rep.Matrix[a] = append([]uint64(nil), pr.matrix[a*pr.procs:(a+1)*pr.procs]...)
	}

	addrs := make([]uint64, 0, len(pr.lines))
	for addr := range pr.lines {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool {
		li, lj := pr.lines[addrs[i]], pr.lines[addrs[j]]
		if li.total != lj.total {
			return li.total > lj.total
		}
		return addrs[i] < addrs[j]
	})
	if len(addrs) > TopK {
		rep.DroppedLines = len(addrs) - TopK
		addrs = addrs[:TopK]
	}
	for _, addr := range addrs {
		ls := pr.lines[addr]
		rep.HotLines = append(rep.HotLines, HotLine{
			Addr:       addr,
			Total:      ls.total,
			ByReason:   reasonCounts(&ls.byReason),
			Aggressors: procCounts(ls.aggr),
			Victims:    procCounts(ls.vict),
		})
	}

	if len(pr.windows) > 0 {
		var maxIdx uint64
		for i := range pr.windows {
			if i > maxIdx {
				maxIdx = i
			}
		}
		var hist obs.Histogram
		for i := uint64(0); i <= maxIdx; i++ {
			w := Window{Index: i, StartCycle: i * WindowCycles}
			if ws := pr.windows[i]; ws != nil {
				w.HWCommits = ws.hwCommits
				w.SWCommits = ws.swCommits
				w.Aborts = ws.aborts
				w.SWAborts = ws.swAborts
				w.ByReason = reasonCounts(&ws.byReason)
			}
			hist.Observe(w.Aborts)
			rep.Windows = append(rep.Windows, w)
		}
		rep.WindowAbortHist = hist.Snapshot()
	}
	return rep
}

// Add merges other's headline totals into rep: edge counts, per-reason
// counts, commit counts, and the aggressor→victim matrix all sum (the
// matrix grows to the larger processor count). Hot lines and windows are
// per-cell artifacts — addresses and cycles are only meaningful within
// one machine run — so they are not merged; DroppedLines accumulates.
// Summation is commutative, so aggregating parallel sweep cells in job
// order stays deterministic.
func (rep *Report) Add(other *Report) {
	if other == nil {
		return
	}
	rep.Edges += other.Edges
	rep.SWEdges += other.SWEdges
	rep.NoAddrEdges += other.NoAddrEdges
	rep.UnknownAggressor += other.UnknownAggressor
	rep.HWCommits += other.HWCommits
	rep.SWCommits += other.SWCommits
	rep.ByReason = mergeReasons(rep.ByReason, other.ByReason)
	rep.DroppedLines += other.DroppedLines
	for len(rep.Matrix) < len(other.Matrix) {
		rep.Matrix = append(rep.Matrix, nil)
	}
	for a := range other.Matrix {
		for len(rep.Matrix[a]) < len(other.Matrix[a]) {
			rep.Matrix[a] = append(rep.Matrix[a], 0)
		}
		for v, n := range other.Matrix[a] {
			rep.Matrix[a][v] += n
		}
	}
	if other.Procs > rep.Procs {
		rep.Procs = other.Procs
	}
}

// mergeReasons sums two frozen reason lists, preserving declaration order.
func mergeReasons(a, b []ReasonCount) []ReasonCount {
	var sum [machine.NumAbortReasons]uint64
	for _, lst := range [][]ReasonCount{a, b} {
		for _, rc := range lst {
			// Unknown names land on AbortNone, which real edges never carry.
			r, _ := machine.AbortReasonByName(rc.Reason)
			sum[r] += rc.Count
		}
	}
	return reasonCounts(&sum)
}
