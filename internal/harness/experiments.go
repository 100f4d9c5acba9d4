package harness

import (
	"fmt"
	"io"

	"repro/internal/machine"
	"repro/internal/stamp"
)

// Figure5Data holds one workload's speedup sweep.
type Figure5Data struct {
	Workload  string
	SeqCycles uint64
	// Cells[system][threads] is the measured run.
	Cells map[SystemKind]map[int]Result
}

// Figure5 reproduces the paper's Figure 5: speedup over sequential
// execution for every benchmark × TM system × thread count.
func (r *Runner) Figure5(opt Options, scale Scale) ([]Figure5Data, error) {
	return r.Sweep(Benchmarks(scale), Figure5Systems, opt, scale)
}

// Extended runs the same sweep over the extension workloads (STAMP
// benchmarks beyond the paper's three: ssca2, intruder, labyrinth).
func (r *Runner) Extended(opt Options, scale Scale) ([]Figure5Data, error) {
	return r.Sweep(ExtendedBenchmarks(scale), Figure5Systems, opt, scale)
}

// Sweep measures speedup over sequential for every workload × system ×
// thread count of the scale.
func (r *Runner) Sweep(factories []WorkloadFactory, systems []SystemKind, opt Options, scale Scale) ([]Figure5Data, error) {
	return r.grid(factories, systems, ThreadCounts(scale), opt)
}

// grid measures speedup over sequential for every workload × system ×
// processor count on the axis. All cells (including the per-workload
// sequential baselines) fan out across the Runner's worker pool; the
// assembled data is identical for every worker count.
func (r *Runner) grid(factories []WorkloadFactory, systems []SystemKind, axis []int, opt Options) ([]Figure5Data, error) {
	var jobs []Job
	for _, f := range factories {
		jobs = append(jobs, Job{System: Sequential, Factory: f, Threads: 1, Opt: opt})
		for _, sys := range systems {
			for _, t := range axis {
				jobs = append(jobs, Job{System: sys, Factory: f, Threads: t, Opt: opt})
			}
		}
	}
	results, err := r.Execute(jobs)
	var out []Figure5Data
	i := 0
	for _, f := range factories {
		d := Figure5Data{Workload: f.Name, SeqCycles: results[i].baseCycles(), Cells: make(map[SystemKind]map[int]Result)}
		i++
		for _, sys := range systems {
			d.Cells[sys] = make(map[int]Result)
			for _, t := range axis {
				d.Cells[sys][t] = results[i]
				i++
			}
		}
		out = append(out, d)
	}
	return out, err
}

// PrintFigure5 renders the sweep as text tables.
func PrintFigure5(w io.Writer, data []Figure5Data, scale Scale) {
	for _, d := range data {
		printSpeedups(w, "Figure 5", d, Figure5Systems, ThreadCounts(scale))
	}
}

// printSpeedups renders one workload's grid as a text table: a row per
// system, a column per processor count on the axis.
func printSpeedups(w io.Writer, title string, d Figure5Data, systems []SystemKind, axis []int) {
	fmt.Fprintf(w, "\n%s — %s (speedup vs. sequential; seq = %d cycles)\n", title, d.Workload, d.SeqCycles)
	printGrid(w, systems, axis, "p=%d", "%8.2f", func(sys SystemKind, t int) float64 {
		return d.Cells[sys][t].Speedup(d.SeqCycles)
	})
}

// printGrid renders the table under every speedup figure: a header of
// column labels (colFmt applied to each column's key), then a row per
// system with cell(system, key) under cellFmt in each column.
func printGrid(w io.Writer, systems []SystemKind, cols []int, colFmt, cellFmt string, cell func(SystemKind, int) float64) {
	fmt.Fprintf(w, "%-14s", "system")
	for _, c := range cols {
		fmt.Fprintf(w, "%8s", fmt.Sprintf(colFmt, c))
	}
	fmt.Fprintln(w)
	for _, sys := range systems {
		fmt.Fprintf(w, "%-14s", sys)
		for _, c := range cols {
			fmt.Fprintf(w, cellFmt, cell(sys, c))
		}
		fmt.Fprintln(w)
	}
}

// ScaleProcCounts is the `-experiment scale` x-axis: simulated-processor
// counts beyond the paper's 16, exercising the 256-processor directory.
// The small scale keeps unit tests fast.
func ScaleProcCounts(s Scale) []int {
	if s == ScaleFull {
		return []int{64, 128, 256}
	}
	return []int{8, 16}
}

// ScaleSystems are the systems the scaling study sweeps: the paper's
// hybrid and a pure STM for contrast.
var ScaleSystems = []SystemKind{UFOHybrid, TL2}

// ScaleBenchmark returns the scaling-study workload at the given scale.
// The workloads one factory builds share a table of expected digests,
// so a sweep replays each thread count's hash chains once.
func ScaleBenchmark(s Scale) WorkloadFactory {
	iters, work := 400, 64
	if s == ScaleFull {
		iters, work = 12800, 256
	}
	newMix := stamp.NewScaleMixes(iters, work)
	return WorkloadFactory{Name: "scalemix", New: func() stamp.Workload { return newMix() }}
}

// ScaleSweep runs the Figure-5-style scaling study: scalemix speedup
// over sequential at every ScaleProcCounts processor count.
func (r *Runner) ScaleSweep(opt Options, scale Scale) (Figure5Data, error) {
	data, err := r.grid([]WorkloadFactory{ScaleBenchmark(scale)}, ScaleSystems, ScaleProcCounts(scale), opt)
	return data[0], err
}

// PrintScaleSweep renders the scaling study as a text table.
func PrintScaleSweep(w io.Writer, d Figure5Data, scale Scale) {
	printSpeedups(w, "Scaling study", d, ScaleSystems, ScaleProcCounts(scale))
}

// Row is one cell of a study: the study and configuration it belongs
// to, the sequential baseline of its workload when the study measures
// one (zero otherwise), and the measured Result, which names the
// workload, the system and the thread count. Every study under Figure 5
// — Figure 6, Figure 8, the ablations, the footprint profile, the
// policy sweep — returns []Row, so a cell's outcome is one field in one
// place whatever table it ends up in.
type Row struct {
	Study     string
	Config    string
	SeqCycles uint64
	Result
}

// studyConfig is one configuration of a study: the row's Config label,
// the system to run, and what it changes in the study's options (nil:
// nothing).
type studyConfig struct {
	name   string
	system SystemKind
	mutate func(*Options)
}

// runStudy measures every configuration of a study on every workload at
// the scale's largest thread count, through the Runner's worker pool.
// Jobs and rows are workload-major in config order; a study with a
// baseline runs each workload's sequential cell ahead of its
// configurations and every row of that workload carries its cycles.
func (r *Runner) runStudy(study string, factories []WorkloadFactory, baseline bool, scale Scale, opt Options, configs []studyConfig) ([]Row, error) {
	threads := maxThreads(scale)
	var jobs []Job
	for _, f := range factories {
		if baseline {
			jobs = append(jobs, Job{System: Sequential, Factory: f, Threads: 1, Opt: opt})
		}
		for _, c := range configs {
			o := opt
			if c.mutate != nil {
				c.mutate(&o)
			}
			jobs = append(jobs, Job{System: c.system, Factory: f, Threads: threads, Opt: o})
		}
	}
	results, err := r.Execute(jobs)
	rows := make([]Row, 0, len(factories)*len(configs))
	i := 0
	for range factories {
		var seq uint64
		if baseline {
			seq = results[i].baseCycles()
			i++
		}
		for _, c := range configs {
			rows = append(rows, Row{Study: study, Config: c.name, SeqCycles: seq, Result: results[i]})
			i++
		}
	}
	return rows, err
}

// failedRow prints a failed cell's row — its label, laid out by format,
// then ERROR and the cell's error — and reports whether the cell failed.
// A failed cell's counters are partial or missing, so every table prints
// it this way instead of as numbers.
func failedRow(w io.Writer, err error, format string, label ...any) bool {
	if err == nil {
		return false
	}
	fmt.Fprintf(w, format, label...)
	fmt.Fprintf(w, " ERROR %v\n", err)
	return true
}

// Figure6Systems are the hardware-transaction-running systems whose abort
// reasons Figure 6 breaks down.
var Figure6Systems = []SystemKind{UnboundedHTM, UFOHybrid, HyTM, PhTM}

// Figure6 reproduces the abort-reason breakdown at the largest thread
// count of the scale.
func (r *Runner) Figure6(opt Options, scale Scale) ([]Row, error) {
	var configs []studyConfig
	for _, sys := range Figure6Systems {
		configs = append(configs, studyConfig{name: string(sys), system: sys})
	}
	return r.runStudy("fig6", Benchmarks(scale), false, scale, opt, configs)
}

// figure6Reasons are the abort categories Figure 6 plots.
var figure6Reasons = []machine.AbortReason{
	machine.AbortOverflow, machine.AbortConflict, machine.AbortUFOKill,
	machine.AbortUFOFault, machine.AbortNonTConflict, machine.AbortInterrupt,
	machine.AbortExplicit, machine.AbortSyscall,
}

// PrintFigure6 renders the breakdown.
func PrintFigure6(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "\nFigure 6 — hardware-transaction abort reasons (largest thread count)\n")
	fmt.Fprintf(w, "%-14s %-14s %9s", "workload", "system", "hwCommit")
	for _, r := range figure6Reasons {
		fmt.Fprintf(w, "%10s", r)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		if failedRow(w, row.Err, "%-14s %-14s", row.Workload, row.System) {
			continue
		}
		fmt.Fprintf(w, "%-14s %-14s %9d", row.Workload, row.System, row.Stats.HWCommits)
		for _, r := range figure6Reasons {
			fmt.Fprintf(w, "%10d", row.Machine.HWAbortsByReason[r])
		}
		fmt.Fprintln(w)
	}
}

// Figure7Systems compares the hybrids against pure HTM and pure STM.
var Figure7Systems = []SystemKind{UnboundedHTM, UFOHybrid, HyTM, PhTM, USTMUFO}

// Figure7Rates is Figure 7's x-axis: the percentages of transactions the
// microbenchmark forces to software.
func Figure7Rates(s Scale) []int {
	if s == ScaleFull {
		return []int{0, 1, 2, 5, 10, 20, 40, 60, 80, 100}
	}
	return []int{0, 5, 20, 60, 100}
}

// Figure7 reproduces the software-failover microbenchmark (Section 5.3):
// conflict-free transactions forced to software at a prescribed rate. It
// is a grid with one failover workload per rate — data[i] is
// Figure7Rates(scale)[i], with its own sequential baseline (the coin
// flip costs cycles) — at the scale's largest thread count.
func (r *Runner) Figure7(opt Options, scale Scale) ([]Figure5Data, error) {
	tasks := 60
	if scale == ScaleFull {
		tasks = 200
	}
	var factories []WorkloadFactory
	for _, rate := range Figure7Rates(scale) {
		factories = append(factories, WorkloadFactory{
			Name: fmt.Sprintf("failover-%d%%", rate),
			New:  func() stamp.Workload { return stamp.NewFailover(tasks, rate) },
		})
	}
	return r.grid(factories, Figure7Systems, []int{maxThreads(scale)}, opt)
}

// PrintFigure7 renders the sweep: absolute speedups (7a) and the
// low-rate zoom normalized to pure HTM (7b). A ratio with a failed cell
// on either side prints 0, as Result.Speedup does.
func PrintFigure7(w io.Writer, data []Figure5Data, scale Scale) {
	threads, rates := maxThreads(scale), Figure7Rates(scale)
	at := make(map[int]Figure5Data, len(rates))
	for i, rate := range rates {
		at[rate] = data[i]
	}
	fmt.Fprintf(w, "\nFigure 7a — failover microbenchmark, %d threads (speedup vs. sequential)\n", threads)
	printGrid(w, Figure7Systems, rates, "%d%%", "%8.2f", func(sys SystemKind, rate int) float64 {
		return at[rate].Cells[sys][threads].Speedup(at[rate].SeqCycles)
	})
	fmt.Fprintf(w, "\nFigure 7b — low failover rates, relative to pure HTM (=1.00)\n")
	var low []int // rates ascend, so low does
	for _, r := range rates {
		if r <= 10 {
			low = append(low, r)
		}
	}
	printGrid(w, Figure7Systems, low, "%d%%", "%8.3f", func(sys SystemKind, rate int) float64 {
		cells := at[rate].Cells
		return cells[sys][threads].Speedup(cells[UnboundedHTM][threads].baseCycles())
	})
}

// figure8Configs are the Section 5.4 sensitivity configurations.
func figure8Configs() []studyConfig {
	return []studyConfig{
		{"age-ordered (default)", UFOHybrid, nil},
		// The paper's first bar pairs the naive hardware policy with
		// failover after repeated contention aborts (required there for
		// forward progress).
		{"requester-wins+failover5", UFOHybrid, func(o *Options) {
			o.Params.HWPolicy = machine.RequesterWins
			o.Policy.FailoverOnNthConflict = 5
		}},
		{"requester-wins", UFOHybrid, func(o *Options) { o.Params.HWPolicy = machine.RequesterWins }},
		{"failover-on-5th-conflict", UFOHybrid, func(o *Options) { o.Policy.FailoverOnNthConflict = 5 }},
		{"stall-on-ufo-fault", UFOHybrid, func(o *Options) { o.Policy.StallOnUFOFault = true }},
		{"true-conflict-kills-only", UFOHybrid, func(o *Options) { o.Params.TrueConflictUFOKills = true }},
	}
}

// Figure8 reproduces the contention-policy sensitivity study on the UFO
// hybrid over the two highest-contention benchmarks.
func (r *Runner) Figure8(opt Options, scale Scale) ([]Row, error) {
	return r.runStudy("fig8", benchmarks(scale, "genome", "kmeans-high", "vacation-high"), true, scale, opt, figure8Configs())
}

// PrintFigure8 renders the study.
func PrintFigure8(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "\nFigure 8 — UFO-hybrid contention-management sensitivity (speedup vs. sequential)\n")
	fmt.Fprintf(w, "%-14s %-26s %8s %10s %10s\n", "workload", "policy", "speedup", "failovers", "ufoKills")
	for _, r := range rows {
		if failedRow(w, r.Err, "%-14s %-26s", r.Workload, r.Config) {
			continue
		}
		fmt.Fprintf(w, "%-14s %-26s %8.2f %10d %10d\n",
			r.Workload, r.Config, r.Speedup(r.SeqCycles),
			r.Stats.Failovers,
			r.Machine.UFOKillsTrue+r.Machine.UFOKillsFalse)
	}
}

// PrintParams renders the Table 4 analogue.
func PrintParams(w io.Writer, opt Options) {
	p := opt.Params
	fmt.Fprintln(w, "Table 4 — simulation parameters")
	fmt.Fprintf(w, "  L1 data cache        %d KB, %d-way, 64 B lines, %d-cycle hit\n", p.L1Bytes/1024, p.L1Ways, machine.L1HitCycles)
	fmt.Fprintf(w, "  L2 (shared) latency  %d cycles\n", machine.L2HitCycles)
	fmt.Fprintf(w, "  Memory latency       %d cycles\n", machine.MemCycles)
	fmt.Fprintf(w, "  Cache-to-cache       %d cycles\n", machine.TransferCycles)
	fmt.Fprintf(w, "  NACK retry delay     %d cycles\n", machine.NackCycles)
	fmt.Fprintf(w, "  Scheduling quantum   %d cycles\n", p.Quantum)
	fmt.Fprintf(w, "  UFO bit operation    %d cycles\n", machine.UFOOpCycles)
	fmt.Fprintf(w, "  USTM otable rows     %d\n", opt.OTableRows)
}
