package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// SeedStats aggregates one (workload, system, threads) cell across seeds.
type SeedStats struct {
	Workload string
	System   SystemKind
	Threads  int
	// Speedups per seed, in seed order.
	Speedups []float64
}

// Mean returns the average speedup.
func (s SeedStats) Mean() float64 {
	if len(s.Speedups) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Speedups {
		sum += v
	}
	return sum / float64(len(s.Speedups))
}

// MinMax returns the extremes.
func (s SeedStats) MinMax() (lo, hi float64) {
	if len(s.Speedups) == 0 {
		return 0, 0
	}
	lo, hi = s.Speedups[0], s.Speedups[0]
	for _, v := range s.Speedups[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Figure5Seeds runs the Figure 5 sweep across machine seeds 1..seeds and
// aggregates per cell. Workload inputs are workload-seeded (fixed), so
// the spread reflects timing/interleaving sensitivity — the simulator's
// analogue of run-to-run variance. Each per-seed sweep fans out across
// the Runner's worker pool.
func (r *Runner) Figure5Seeds(opt Options, scale Scale, seeds int) ([]SeedStats, error) {
	var out []SeedStats
	var errs []error
	for seed := 1; seed <= seeds; seed++ {
		o := opt
		o.Params.Seed = uint64(seed)
		data, err := r.Figure5(o, scale)
		errs = append(errs, err)
		// Every seed's sweep lists its cells in the same grid order, so
		// the i-th cell of each seed is the same (workload, system, threads).
		i := 0
		for _, d := range data {
			for _, sys := range Figure5Systems {
				for _, th := range ThreadCounts(scale) {
					if seed == 1 {
						out = append(out, SeedStats{Workload: d.Workload, System: sys, Threads: th})
					}
					out[i].Speedups = append(out[i].Speedups, d.Cells[sys][th].Speedup(d.SeqCycles))
					i++
				}
			}
		}
	}
	return out, mergeSweepErrors(errs...)
}

// PrintSeedStats renders the aggregate.
func PrintSeedStats(w io.Writer, stats []SeedStats) {
	fmt.Fprintf(w, "\nFigure 5 across seeds (speedup mean [min..max])\n")
	fmt.Fprintf(w, "%-14s %-14s %4s %8s %8s %8s\n", "workload", "system", "p", "mean", "min", "max")
	for _, s := range stats {
		lo, hi := s.MinMax()
		fmt.Fprintf(w, "%-14s %-14s %4d %8.2f %8.2f %8.2f\n",
			s.Workload, s.System, s.Threads, s.Mean(), lo, hi)
	}
}

// WriteFigure5CSV emits the Figure 5 sweep as CSV (one row per cell) for
// external plotting.
func WriteFigure5CSV(w io.Writer, data []Figure5Data, scale Scale) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workload", "system", "threads", "cycles", "seq_cycles", "speedup",
		"hw_commits", "sw_commits", "failovers"}); err != nil {
		return err
	}
	for _, d := range data {
		for _, sys := range Figure5Systems {
			for _, th := range ThreadCounts(scale) {
				r := d.Cells[sys][th]
				rec := []string{
					d.Workload, string(sys), strconv.Itoa(th),
					strconv.FormatUint(r.Cycles, 10),
					strconv.FormatUint(d.SeqCycles, 10),
					strconv.FormatFloat(r.Speedup(d.SeqCycles), 'f', 4, 64),
					strconv.FormatUint(r.Stats.HWCommits, 10),
					strconv.FormatUint(r.Stats.SWCommits, 10),
					strconv.FormatUint(r.Stats.Failovers, 10),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
