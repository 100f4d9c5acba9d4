package harness

import (
	"fmt"
	"io"
)

// Latency runs the `-experiment latency` sweep: the Figure 5 workloads ×
// systems × thread counts with per-transaction lifecycle accounting
// enabled. The recorder never perturbs simulated cycles, so the speedup
// numbers match a plain Figure5 run exactly; the extra yield is each
// cell's latency distribution and wasted-work attribution (collect them
// with Report.Collector on the Runner).
func (r *Runner) Latency(opt Options, scale Scale) ([]Figure5Data, error) {
	opt.TxStats = true
	return r.Sweep(Benchmarks(scale), Figure5Systems, opt, scale)
}

// PrintLatency renders the latency experiment as text tables: one row
// per (system, threads) cell with commit counts, latency percentiles in
// simulated cycles, mean attempts per commit, and the share of
// transactional cycles that was wasted (aborted attempts + backoff). A
// failed cell's row names its error.
func PrintLatency(w io.Writer, data []Figure5Data, scale Scale) {
	for _, d := range data {
		fmt.Fprintf(w, "\nLatency — %s (simulated cycles per committed transaction)\n", d.Workload)
		fmt.Fprintf(w, "%-14s %5s %9s %9s %9s %9s %9s %8s %7s\n",
			"system", "p", "commits", "P50", "P90", "P99", "P99.9", "attempts", "wasted")
		for _, sys := range Figure5Systems {
			for _, t := range ThreadCounts(scale) {
				res, ok := d.Cells[sys][t]
				if !ok || failedRow(w, res.Err, "%-14s %5d", sys, t) {
					continue
				}
				ts := res.TxStats
				var p50, p90, p99, p999 float64
				if pc := ts.LatencyPercentiles; pc != nil {
					p50, p90, p99, p999 = pc.P50, pc.P90, pc.P99, pc.P999
				}
				meanAttempts := 0.0
				if ts.Attempts != nil && ts.Attempts.Count > 0 {
					meanAttempts = float64(ts.Attempts.Sum) / float64(ts.Attempts.Count)
				}
				fmt.Fprintf(w, "%-14s %5d %9d %9.0f %9.0f %9.0f %9.0f %8.2f %6.1f%%\n",
					sys, t, ts.Committed, p50, p90, p99, p999, meanAttempts, 100*ts.WastedShare())
			}
		}
	}
}
