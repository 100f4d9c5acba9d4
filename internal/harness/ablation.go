package harness

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/machine"
)

// AblationUFOMitigations evaluates the paper's two proposed fixes for
// false UFO/BTM conflicts (Section 4.3) — owner-state bit installation
// and lazy bit clearing — against the default eager protocol and the
// true-conflict-only limit study, on the workload with the heaviest
// STM/HTM interaction.
func (r *Runner) AblationUFOMitigations(opt Options, scale Scale) ([]Row, error) {
	return r.runStudy("ufo-mitigations", benchmarks(scale, "vacation-high"), true, scale, opt, []studyConfig{
		{"eager (default)", UFOHybrid, nil},
		{"owner-state install", UFOHybrid, func(o *Options) { o.Params.OwnerStateUFO = true }},
		{"lazy clear", UFOHybrid, func(o *Options) { o.Params.LazyUFOClear = true }},
		{"both mitigations", UFOHybrid, func(o *Options) {
			o.Params.OwnerStateUFO = true
			o.Params.LazyUFOClear = true
		}},
		{"true-conflict limit", UFOHybrid, func(o *Options) { o.Params.TrueConflictUFOKills = true }},
	})
}

// AblationL1Size sweeps the transactional capacity: smaller L1s overflow
// more transactions to software, quantifying how much of the hybrid's
// performance rides on hardware capacity (the DESIGN.md ablation for the
// bounded-HTM design choice).
func (r *Runner) AblationL1Size(opt Options, scale Scale) ([]Row, error) {
	var configs []studyConfig
	for _, kb := range []int{4, 8, 16, 32, 64} {
		configs = append(configs, studyConfig{
			fmt.Sprintf("%d KB", kb), UFOHybrid,
			func(o *Options) { o.Params.L1Bytes = kb * 1024 },
		})
	}
	return r.runStudy("l1-size", benchmarks(scale, "vacation-high"), true, scale, opt, configs)
}

// AblationOTableSize sweeps the ownership-table row count: small tables
// alias unrelated lines to the same row, manufacturing conflicts — the
// reason the paper sizes otables at "tens of thousands" of entries.
func (r *Runner) AblationOTableSize(opt Options, scale Scale) ([]Row, error) {
	var configs []studyConfig
	for _, rows := range []int{1 << 6, 1 << 10, 1 << 16} {
		configs = append(configs, studyConfig{
			fmt.Sprintf("%d rows", rows), USTMUFO,
			func(o *Options) { o.OTableRows = rows },
		})
	}
	return r.runStudy("otable-size", benchmarks(scale, "vacation-low"), true, scale, opt, configs)
}

// AblationQuantum sweeps the scheduling quantum: short quanta interrupt
// (and so abort) more hardware transactions, which the abort handler must
// absorb as recoverable retries.
func (r *Runner) AblationQuantum(opt Options, scale Scale) ([]Row, error) {
	var configs []studyConfig
	for _, q := range []uint64{5_000, 50_000, 200_000, 2_000_000} {
		configs = append(configs, studyConfig{
			fmt.Sprintf("%d cycles", q), UFOHybrid,
			func(o *Options) { o.Params.Quantum = q },
		})
	}
	return r.runStudy("quantum", benchmarks(scale, "kmeans-low"), true, scale, opt, configs)
}

// Ablations runs every ablation study.
func (r *Runner) Ablations(opt Options, scale Scale) ([]Row, error) {
	var out []Row
	var errs []error
	for _, study := range []func(Options, Scale) ([]Row, error){
		r.AblationUFOMitigations, r.AblationL1Size, r.AblationOTableSize, r.AblationQuantum,
	} {
		rows, err := study(opt, scale)
		out = append(out, rows...)
		errs = append(errs, err)
	}
	return out, mergeSweepErrors(errs...)
}

// PrintAblations renders the studies.
func PrintAblations(w io.Writer, rows []Row) {
	study := ""
	for _, r := range rows {
		if r.Study != study {
			study = r.Study
			fmt.Fprintf(w, "\nAblation — %s (%s)\n", study, r.Workload)
			fmt.Fprintf(w, "%-22s %8s %10s %10s %10s %10s\n",
				"config", "speedup", "failovers", "overflows", "ufoKills", "interrupts")
		}
		if failedRow(w, r.Err, "%-22s", r.Config) {
			continue
		}
		fmt.Fprintf(w, "%-22s %8.2f %10d %10d %10d %10d\n",
			r.Config, r.Speedup(r.SeqCycles),
			r.Stats.Failovers,
			r.Machine.HWAbortsByReason[machine.AbortOverflow],
			r.Machine.UFOKillsTrue+r.Machine.UFOKillsFalse,
			r.Machine.HWAbortsByReason[machine.AbortInterrupt])
	}
}

// benchmarks returns the named workload factories at the given scale,
// in Benchmarks order, as the list a study runs over. It panics on a
// name Benchmarks does not list.
func benchmarks(scale Scale, names ...string) []WorkloadFactory {
	var out []WorkloadFactory
	for _, f := range Benchmarks(scale) {
		if slices.Contains(names, f.Name) {
			out = append(out, f)
		}
	}
	if len(out) != len(names) {
		panic(fmt.Sprintf("harness: unknown benchmark among %q", names))
	}
	return out
}

// Footprints profiles committed-transaction footprints per benchmark on
// the UFO hybrid — the data behind the paper's observation that "a
// significant majority of the dynamic transactions ... execute
// completely in BTM".
func (r *Runner) Footprints(opt Options, scale Scale) ([]Row, error) {
	return r.runStudy("footprints", append(Benchmarks(scale), ExtendedBenchmarks(scale)...), false, scale, opt,
		[]studyConfig{{name: string(UFOHybrid), system: UFOHybrid}})
}

// PrintFootprints renders the profile.
func PrintFootprints(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "\nTransaction footprints on the UFO hybrid (distinct lines per committed tx)\n")
	fmt.Fprintf(w, "%-14s %9s %9s %8s %8s %8s  %s\n",
		"workload", "hwCommit", "swCommit", "hwMean", "hwMax", "≤64ln", "swHist")
	for _, r := range rows {
		if failedRow(w, r.Err, "%-14s", r.Workload) {
			continue
		}
		hw := r.Machine.HWFootprint.Snapshot()
		sw := r.Machine.SWFootprint.Snapshot()
		fmt.Fprintf(w, "%-14s %9d %9d %8.1f %8d %7.0f%%  %s\n",
			r.Workload, hw.Count, sw.Count, hw.Mean(), hw.Max,
			hw.FracAtMost(64)*100, sw)
	}
}
