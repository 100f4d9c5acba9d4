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
// done/total with an ETA on stderr; the litmus sweep's cells are
// (program, system) pairs on the same pool.
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
//	tmsim -experiment fig5 -contention-out fig5-cont.html
//	    also records conflict attribution — who-aborted-whom edges with
//	    cache-line addresses and abort reasons — and writes per-cell
//	    contention profiles (top-K hot lines, aggressor→victim matrices,
//	    cycle-windowed abort time series) as self-contained HTML (a
//	    .html file), plain text (.txt) or JSON (any other name; the
//	    top-K cut and the window are contention.TopK and
//	    contention.WindowCycles). The profile runs only when
//	    -contention-out asks for it.
//	    Byte-identical for every -parallel value.
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
//	    arrivals; the load axis runs at skew 0.9 and an 80/15/5 mix, and
//	    the skew and mix axes vary those. Byte-identical for every
//	    -parallel value. -txstats-out and -contention-out compose with it
//	    (lifecycle accounting is always on for this experiment, since its
//	    report is built from it; conflict attribution only with
//	    -contention-out).
//	tmsim -trace-out t.json [-trace-workload genome
//	      -trace-system ufo-hybrid -trace-threads 4]
//	    runs that single cell instead of any experiment, as a one-job
//	    sweep with a trace sink subscribed to its machine. The file name
//	    picks the format: a .json file is a Perfetto/about://tracing-
//	    loadable Chrome trace with one track per simulated processor, a
//	    .jsonl file one JSON object per event, any other name the text
//	    trace. The file is written as the cell runs, with
//	    no limit on its length (tail -n 40 for the last 40 events), so a
//	    cell that fails — exit status 1, one line naming it — leaves the
//	    trace up to its failure. -metrics-out, -txstats-out and
//	    -contention-out compose with it.
//
// Host profiling: -cpuprofile and -memprofile write runtime/pprof
// profiles of tmsim itself (the simulator, not the simulated machine),
// for finding hot spots in the simulation loop. See EXPERIMENTS.md.
//
// Contradictory flag combinations (for example -trace-system without
// -trace-out, or -csv under -experiment fig6) are rejected up front with
// exit status 2.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/contention"
	"repro/internal/harness"
	"repro/internal/machine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, runs what they ask
// for and returns the exit status (2 for a usage error, 1 for a failed
// run), so tests drive the whole command in-process.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseConfig(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "tmsim: %v\n", err)
		return 2
	}
	return runConfig(cfg, stdout, stderr)
}

// runConfig is run after the flags parsed.
func runConfig(cfg *config, stdout, stderr io.Writer) int {
	stopProfiles, err := startProfiles(cfg, stderr)
	if err == nil {
		err = newSession(cfg, stdout, stderr).execute()
		stopProfiles() // on the failure path too, before the error is reported
	}
	if err != nil {
		fmt.Fprintf(stderr, "tmsim: %v\n", err)
		return 1
	}
	return 0
}

// newSession resolves the parsed flags into run options and a runner.
func newSession(cfg *config, stdout, stderr io.Writer) *session {
	s := &session{cfg: cfg, opt: harness.DefaultOptions(), runner: harness.Parallel(cfg.parallel), stdout: stdout}
	s.opt.Params.Seed = cfg.seed
	s.opt.CM = cfg.cmKind
	s.opt.Contention = cfg.contentionOut != ""
	s.opt.TxStats = cfg.txstatsOut != ""
	if cfg.progress {
		s.runner.Progress = func(p harness.Progress) {
			fmt.Fprintf(stderr, "\r  [%d/%d cells, elapsed %v, eta %v]   ",
				p.Done, p.Total, p.Elapsed.Round(time.Second), p.ETA.Round(time.Second))
			if p.Done == p.Total {
				fmt.Fprintln(stderr)
			}
		}
	}
	return s
}

// execute runs the traced cell or the selected experiments, collecting
// every cell into one report, then writes the report sections asked for.
func (s *session) execute() error {
	cfg := s.cfg
	var rep harness.Report
	if cfg.metricsOut != "" || cfg.contentionOut != "" || cfg.txstatsOut != "" {
		s.runner.Collect = rep.Collector()
	}
	if err := s.runExperiments(); err != nil {
		return err
	}
	cells := fmt.Sprintf(" for %d cells", len(rep.Cells))
	if cfg.traceOut != "" {
		cells = "" // a traced run is one cell, and its messages do not count it
	}
	// The contention report's file name picks its format.
	format, contentionWrite := "json", func(w io.Writer) error { return rep.WriteJSON(w, harness.SectionContention) }
	switch filepath.Ext(cfg.contentionOut) {
	case ".html":
		format, contentionWrite = "html", func(w io.Writer) error { return contention.WriteHTML(w, rep.ContentionCells()) }
	case ".txt":
		format, contentionWrite = "text", func(w io.Writer) error { return contention.WriteText(w, rep.ContentionCells()) }
	}
	for _, out := range []struct {
		path, what string
		write      func(io.Writer) error
	}{
		{cfg.metricsOut, "metrics", func(w io.Writer) error { return rep.WriteJSON(w, harness.SectionMetrics) }},
		{cfg.contentionOut, fmt.Sprintf("contention report (%s)", format), contentionWrite},
		{cfg.txstatsOut, "txstats report", func(w io.Writer) error { return rep.WriteJSON(w, harness.SectionTxStats) }},
	} {
		if err := s.writeOut(out.path, out.what+cells, out.write); err != nil {
			return err
		}
	}
	return nil
}

// writeOut writes the output file of a flag that was given (path is not
// empty) and says so on stdout.
func (s *session) writeOut(path, what string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if err := writeFile(path, write); err != nil {
		return err
	}
	fmt.Fprintf(s.stdout, "  [%s written to %s]\n", what, path)
	return nil
}

// startProfiles starts the -cpuprofile collection and returns a
// function that stops it and writes the -memprofile heap snapshot. The
// returned function is safe to call when neither flag was given.
func startProfiles(cfg *config, stderr io.Writer) (func(), error) {
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
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintf(stderr, "  [cpu profile written to %s]\n", cfg.cpuProfile)
		}
		if cfg.memProfile != "" {
			runtime.GC() // flush garbage so the profile shows live heap
			if err := writeFile(cfg.memProfile, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintf(stderr, "tmsim: memprofile: %v\n", err)
				return
			}
			fmt.Fprintf(stderr, "  [heap profile written to %s]\n", cfg.memProfile)
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

// eventCount is the observer behind "N trace events" in the traced
// cell's stdout line.
type eventCount uint64

func (n *eventCount) Event(machine.TraceEvent) { *n++ }

// runTraced runs the -trace-* cell as a one-job sweep whose machine has
// a trace sink subscribed over the output file, in the format its name
// picks (.jsonl: JSONL, .json: Chrome, anything else: text); the caller
// writes the cell's -metrics-out, -contention-out and -txstats-out
// reports. The sink is
// closed whether or not the cell failed, so the file of a cell that
// died — a failed invariant, a panic, an exhausted step budget — ends
// where the cell did: the artifact that explains the failure.
func (s *session) runTraced() error {
	cfg := s.cfg
	var (
		events eventCount
		res    []harness.Result
		failed error
		format = "text"
		start  = time.Now()
	)
	err := writeFile(cfg.traceOut, func(w io.Writer) error {
		var sink interface {
			machine.Observer
			io.Closer
		}
		switch filepath.Ext(cfg.traceOut) {
		case ".jsonl":
			format, sink = "jsonl", machine.NewJSONLSink(w)
		case ".json":
			format, sink = "chrome", machine.NewChromeSink(w)
		default:
			sink = machine.NewTextSink(w)
		}
		res, failed = s.runner.Execute([]harness.Job{{
			System: cfg.system, Factory: cfg.workload, Threads: cfg.traceThreads, Opt: s.opt,
			Observe: func(m *machine.Machine) {
				m.Observe(machine.TraceKinds, sink)
				m.Observe(machine.TraceKinds, &events)
			},
		}})
		return sink.Close()
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(s.stdout, "  [%s/%s/%d threads: %d cycles, %d trace events (%s) written to %s in %v]\n",
		cfg.workload.Name, cfg.system, cfg.traceThreads, res[0].Cycles, events, format, cfg.traceOut,
		time.Since(start).Round(time.Millisecond))
	var sweep *harness.SweepError
	if errors.As(failed, &sweep) {
		return sweep.Cells[0] // one cell: its coordinates and what went wrong, on one line
	}
	return failed
}
