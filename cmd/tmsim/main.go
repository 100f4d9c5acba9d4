// Command tmsim regenerates the paper's evaluation artifacts on the
// simulated machine:
//
//	tmsim -experiment fig5   # Figure 5: speedup vs. thread count
//	tmsim -experiment fig6   # Figure 6: HW abort-reason breakdown
//	tmsim -experiment fig7   # Figure 7: software-failover microbenchmark
//	tmsim -experiment fig8   # Figure 8: contention-policy sensitivity
//	tmsim -experiment ablate # design-choice ablations (UFO mitigations, L1, otable, quantum)
//	tmsim -experiment extended # extension workloads beyond the paper (ssca2, intruder, labyrinth)
//	tmsim -experiment footprints # committed-transaction footprint histograms per workload
//	tmsim -experiment policies # contention-management policy ablation
//	tmsim -experiment litmus # strong-atomicity litmus conformance matrix
//	tmsim -experiment latency # per-transaction latency percentiles and
//	                          # wasted-work attribution over the fig5 sweep
//	tmsim -experiment scale  # scaling study: scalemix at 64/128/256 simulated processors
//	tmsim -experiment oltp   # open-loop KV/OLTP service: response-time
//	                         # percentiles, goodput vs offered load, and
//	                         # saturation knees across load/skew/mix axes
//	tmsim -experiment params # Table 4: simulation parameters
//	tmsim -experiment all    # everything above except latency, scale, and
//	                         # oltp (supplements, not paper artifacts)
//
// -scale small runs quick versions; -scale full (default) runs the sizes
// recorded in EXPERIMENTS.md. Runs are deterministic for a given -seed.
//
// Every simulated machine runs under the engine's one production
// scheduler (run-ahead, globally serialized; DESIGN.md §12); host
// parallelism is across sweep cells (-parallel), never inside one.
//
// -policy selects the contention-management (backoff) policy every
// system retries under: exp (the paper's capped exponential, default),
// linear, karma (Polka/Karma-style priority), or serialize (exp plus
// starvation escalation). See DESIGN.md §11.
//
// Independent sweep cells fan out across -parallel worker goroutines
// (default: one per CPU; -parallel 1 forces the serial order). Every
// cell owns its simulated machine and RNG seed, so the output is
// bit-identical for every worker count. -progress reports cells
// done/total with an ETA on stderr.
//
// Observability (see OBSERVABILITY.md):
//
//	tmsim -experiment fig5 -metrics-out fig5.json
//	    also writes every sweep cell's metrics snapshot plus the
//	    deterministic aggregate as JSON (byte-identical for every
//	    -parallel value).
//	tmsim -experiment litmus -litmus-out litmus.json
//	    also writes the litmus conformance report (per-program,
//	    per-system verdicts) as deterministic JSON. Non-empty failures
//	    exit 1, so the experiment doubles as a CI gate.
//	tmsim -experiment fig5 -contention-out fig5-cont.html -report html
//	    also records conflict attribution — who-aborted-whom edges with
//	    cache-line addresses and abort reasons — and writes per-cell
//	    contention profiles (top-K hot lines, aggressor→victim matrices,
//	    cycle-windowed abort time series) as JSON, self-contained HTML,
//	    or plain text (-report json|html|text; -contention-topk,
//	    -timeseries-window tune the profile). Byte-identical for every
//	    -parallel value.
//	tmsim -experiment latency -txstats-out lat.json
//	    also writes every cell's transaction-lifecycle report — latency
//	    percentiles in simulated cycles, retries-to-commit, wasted-work
//	    breakdown by abort reason and execution path, per-aggressor
//	    wasted-cycle attribution — plus the deterministic aggregate as
//	    JSON (byte-identical for every -parallel value). -txstats-out
//	    composes with any experiment and with -trace-out.
//	tmsim -experiment oltp -oltp-out oltp.json
//	    also writes the open-loop service report (tmsim-oltp/v1): per
//	    (axis point, system) offered load, goodput, utilization, and
//	    P50/P90/P99/P99.9 response time (arrival to commit), plus
//	    per-system saturation knees. -oltp-arrival picks poisson or mmpp
//	    arrivals; -oltp-theta and -oltp-{read,rmw,scan}-pct set the
//	    default skew and request mix the load axis runs at. Byte-identical
//	    for every -parallel value. -txstats-out and
//	    -contention-out compose with it (lifecycle accounting and conflict
//	    attribution are always on for this experiment).
//	tmsim -trace-out t.json -trace-format chrome [-trace-workload genome
//	      -trace-system ufo-hybrid -trace-threads 4]
//	    runs that single cell with machine tracing and exports the trace
//	    (text, jsonl, or a Perfetto/about://tracing-loadable Chrome
//	    trace with one track per simulated processor) instead of running
//	    experiments. -metrics-out and -contention-out compose with it.
//
// Host profiling: -cpuprofile and -memprofile write runtime/pprof
// profiles of tmsim itself (the simulator, not the simulated machine),
// for finding hot spots in the simulation loop. See EXPERIMENTS.md.
//
// Contradictory flag combinations (for example -trace-format without
// -trace-out, or -report without -contention-out) are rejected up front
// with exit status 2.
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/conformance/litmus"
	"repro/internal/harness"
	"repro/internal/machine"
)

func main() {
	cfg, err := parseConfig(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmsim: %v\n", err)
		os.Exit(2)
	}

	// stopProfiles finalizes -cpuprofile/-memprofile; it must run on
	// every exit path, including fail()'s early one.
	stopProfiles, err := startProfiles(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmsim: %v\n", err)
		os.Exit(1)
	}

	fail := func(err error) {
		if err != nil {
			stopProfiles()
			fmt.Fprintf(os.Stderr, "tmsim: %v\n", err)
			os.Exit(1)
		}
	}

	scale := cfg.scale()
	opt := harness.DefaultOptions()
	opt.Params.Seed = cfg.seed
	opt.CM = cfg.spec()
	if cfg.contentionOut != "" {
		opt.Contention = true
		opt.ContentionTopK = cfg.contentionTopK
		opt.TimeSeriesWindow = cfg.timeseriesWindow
	}
	if cfg.txstatsOut != "" {
		opt.TxStats = true
	}

	runner := harness.Parallel(cfg.parallel)
	if cfg.progress {
		runner.Progress = func(p harness.Progress) {
			fmt.Fprintf(os.Stderr, "\r  [%d/%d cells, elapsed %v, eta %v]   ",
				p.Done, p.Total, p.Elapsed.Round(time.Second), p.ETA.Round(time.Second))
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	var mrep harness.MetricsReport
	var crep harness.ContentionReport
	var trep harness.TxStatsReport
	var collectors []func(harness.Job, harness.Result)
	if cfg.metricsOut != "" {
		collectors = append(collectors, mrep.Collector())
	}
	if cfg.contentionOut != "" {
		collectors = append(collectors, crep.Collector())
	}
	if cfg.txstatsOut != "" {
		collectors = append(collectors, trep.Collector())
	}
	collect := func(j harness.Job, r harness.Result) {
		for _, c := range collectors {
			c(j, r)
		}
	}
	if len(collectors) > 0 {
		runner.Collect = collect
	}

	run := func(name string) {
		start := time.Now()
		switch name {
		case "params":
			harness.PrintParams(os.Stdout, opt)
		case "fig5":
			if cfg.seeds > 1 {
				stats, err := runner.Figure5Seeds(opt, scale, cfg.seeds)
				harness.PrintSeedStats(os.Stdout, stats)
				fail(err)
				break
			}
			data, err := runner.Figure5(opt, scale)
			harness.PrintFigure5(os.Stdout, data, scale)
			fail(err)
			if cfg.csvPath != "" {
				fail(writeFile(cfg.csvPath, func(w io.Writer) error {
					return harness.WriteFigure5CSV(w, data, scale)
				}))
				fmt.Printf("  [csv written to %s]\n", cfg.csvPath)
			}
		case "fig6":
			rows, err := runner.Figure6(opt, scale)
			harness.PrintFigure6(os.Stdout, rows)
			fail(err)
		case "fig7":
			d, err := runner.Figure7(opt, scale)
			harness.PrintFigure7(os.Stdout, d)
			fail(err)
		case "fig8":
			rows, err := runner.Figure8(opt, scale)
			harness.PrintFigure8(os.Stdout, rows)
			fail(err)
		case "ablate":
			rows, err := runner.Ablations(opt, scale)
			harness.PrintAblations(os.Stdout, rows)
			fail(err)
		case "extended":
			data, err := runner.Extended(opt, scale)
			harness.PrintFigure5(os.Stdout, data, scale)
			fail(err)
		case "footprints":
			rows, err := runner.Footprints(opt, scale)
			harness.PrintFootprints(os.Stdout, rows)
			fail(err)
		case "policies":
			rows, err := runner.PolicySweep(opt, scale)
			harness.PrintPolicySweep(os.Stdout, rows)
			fail(err)
		case "latency":
			data, err := runner.Latency(opt, scale)
			harness.PrintLatency(os.Stdout, data, scale)
			fail(err)
		case "scale":
			d, err := runner.ScaleSweep(opt, scale)
			harness.PrintScaleSweep(os.Stdout, d, scale)
			fail(err)
		case "oltp":
			rep, err := runner.OLTP(opt, scale, cfg.oltpSweep())
			harness.PrintOLTP(os.Stdout, rep)
			fail(err)
			if cfg.oltpOut != "" {
				fail(writeFile(cfg.oltpOut, rep.WriteJSON))
				fmt.Printf("  [oltp report for %d points written to %s]\n", len(rep.Points), cfg.oltpOut)
			}
		case "litmus":
			lc := litmus.FullConfig()
			if scale == harness.ScaleSmall {
				lc = litmus.SmallConfig()
			}
			lc.Workers = cfg.parallel
			rep := litmus.Run(lc)
			rep.WriteText(os.Stdout)
			if cfg.litmusOut != "" {
				fail(writeFile(cfg.litmusOut, rep.WriteJSON))
				fmt.Printf("  [litmus report written to %s]\n", cfg.litmusOut)
			}
			if n := len(rep.Failures); n > 0 {
				fail(fmt.Errorf("litmus: %d conformance failure(s)", n))
			}
		}
		fmt.Printf("  [%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	// A sweep's report messages count its cells; a traced run is one cell.
	cells := func(n int) string { return fmt.Sprintf(" for %d cells", n) }
	switch {
	case cfg.traceOut != "":
		res, err := runTraced(opt, scale, cfg)
		fail(err)
		collect(harness.Job{}, res)
		cells = func(int) string { return "" }
	case cfg.experiment == "all":
		for _, name := range []string{"params", "fig5", "fig6", "fig7", "fig8", "ablate", "extended", "footprints", "policies", "litmus"} {
			run(name)
		}
	default:
		run(cfg.experiment)
	}

	if cfg.metricsOut != "" {
		fail(writeFile(cfg.metricsOut, mrep.WriteJSON))
		fmt.Printf("  [metrics%s written to %s]\n", cells(len(mrep.Cells)), cfg.metricsOut)
	}
	if cfg.contentionOut != "" {
		fail(writeContention(&crep, cfg))
		fmt.Printf("  [contention report (%s)%s written to %s]\n",
			cfg.reportFormat, cells(len(crep.Cells)), cfg.contentionOut)
	}
	if cfg.txstatsOut != "" {
		fail(writeFile(cfg.txstatsOut, trep.WriteJSON))
		fmt.Printf("  [txstats report%s written to %s]\n", cells(len(trep.Cells)), cfg.txstatsOut)
	}
	stopProfiles()
}

// startProfiles starts the -cpuprofile collection and returns a
// function that stops it and writes the -memprofile heap snapshot. The
// returned function is safe to call when neither flag was given.
func startProfiles(cfg *config) (func(), error) {
	var cpuFile *os.File
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintf(os.Stderr, "  [cpu profile written to %s]\n", cfg.cpuProfile)
		}
		if cfg.memProfile != "" {
			f, err := os.Create(cfg.memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tmsim: memprofile: %v\n", err)
				return
			}
			runtime.GC() // flush garbage so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "tmsim: memprofile: %v\n", err)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "  [heap profile written to %s]\n", cfg.memProfile)
		}
	}, nil
}

// writeFile creates path, hands it to write, and closes it whatever
// write returned; the first error wins.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeContention writes the accumulated contention report to
// -contention-out in the -report format.
func writeContention(rep *harness.ContentionReport, cfg *config) error {
	write := rep.WriteJSON
	switch cfg.reportFormat {
	case "html":
		write = rep.WriteHTML
	case "text":
		write = rep.WriteText
	}
	return writeFile(cfg.contentionOut, write)
}

// exportTrace replays tr through the sink selected by -trace-format
// (parseConfig admits text, jsonl and chrome only).
func exportTrace(tr *machine.Trace, format string, w io.Writer) error {
	switch format {
	case "jsonl":
		return tr.Export(machine.NewJSONLSink(w))
	case "chrome":
		return tr.Export(machine.NewChromeSink(w))
	}
	return tr.Export(machine.NewTextSink(w))
}

// runTraced runs one designated cell with tracing enabled and exports
// the trace through the chosen sink; the caller writes the cell's
// -metrics-out, -contention-out and -txstats-out reports.
func runTraced(opt harness.Options, scale harness.Scale, cfg *config) (harness.Result, error) {
	f, ok := harness.FindWorkload(cfg.traceWorkload, scale)
	if !ok {
		return harness.Result{}, fmt.Errorf("unknown workload %q", cfg.traceWorkload)
	}
	system := cfg.system()
	opt.TraceLimit = cfg.traceLimit
	start := time.Now()
	res := harness.Run(system, f.New(), cfg.traceThreads, opt)
	if res.Err != nil {
		return res, fmt.Errorf("%s/%s/%d: %w", cfg.traceWorkload, system, cfg.traceThreads, res.Err)
	}
	err := writeFile(cfg.traceOut, func(w io.Writer) error {
		return exportTrace(res.Trace, cfg.traceFormat, w)
	})
	if err != nil {
		return res, err
	}
	fmt.Printf("  [%s/%s/%d threads: %d cycles, %d trace events (%s) written to %s in %v]\n",
		cfg.traceWorkload, system, cfg.traceThreads, res.Cycles, res.Trace.Total(), cfg.traceFormat, cfg.traceOut,
		time.Since(start).Round(time.Millisecond))
	return res, nil
}
