// Command benchmark is the repo's measuring stick: five named workloads
// run through the production entry points (harness.Runner), host cost
// reported in calibration units, simulated results checked for
// determinism, and a traced pass that attributes host time to layers.
// benchmark/README.md explains the metrics and how to read them;
// BENCHMARK.json at the repo root declares them.
//
//	bash benchmark/run.sh                       every workload, both passes
//	bash benchmark/run.sh -workload fig5-small  one workload
//	bash benchmark/run.sh -quick                one iteration each, for smoke use
//	bash benchmark/run.sh -selfcheck            two sets back to back, compared
//	bash benchmark/run.sh -compare a.json b.json
//
// run.sh builds this package (its own module, benchmark/go.mod, which
// replaces module repro with the parent directory) into .bench_build/.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"repro/internal/harness"
)

// config is what the command line selected.
type config struct {
	workloads []workload
	seed      uint64
	seconds   float64
	untraced  bool // measure the end-to-end metrics
	traced    bool // measure the per-layer metrics
	quick     bool
	out       string
}

// coldSamples is how many fresh processes pay a workload's first op for
// setup_s, and setupKernels how many calibration kernel runs separate
// them; microBatches is how many batches of every layer-micro entry a
// traced run of another workload takes.
const (
	coldSamples  = 3
	setupKernels = 3
	microBatches = 30
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadFlag = fs.String("workload", "", "run only this workload (default: all five)")
		seed         = fs.Uint64("seed", 1, "workload seed (harness Options.Params.Seed)")
		seconds      = fs.Float64("seconds", runSeconds, "how long to measure each workload")
		trace        = fs.String("trace", "", "0: end-to-end metrics only; 1: per-layer metrics from a traced pass only; default both")
		quick        = fs.Bool("quick", false, "one iteration of everything, for smoke use; numbers are not comparable")
		out          = fs.String("out", "benchmark/out", "directory for result.json and trace-<workload>.json")
		selfcheck    = fs.Bool("selfcheck", false, "run two complete sets back to back and compare them against the bounds")
		compare      = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		printMan     = fs.Bool("manifest", false, "print BENCHMARK.json as the program defines it")
		cold         = fs.String("cold", "", "internal: run this workload's op once in a fresh process and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *printMan:
		_, err := stdout.Write(manifest())
		return err
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare wants two result files: -compare a.json b.json")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	case *cold != "":
		w, ok := findWorkload(*cold)
		if !ok {
			return fmt.Errorf("unknown workload %q", *cold)
		}
		return coldOp(w, *seed)
	}

	cfg := config{seed: *seed, seconds: *seconds, quick: *quick, out: *out, workloads: workloads()}
	if *workloadFlag != "" {
		w, ok := findWorkload(*workloadFlag)
		if !ok {
			return fmt.Errorf("unknown workload %q (want one of %s)", *workloadFlag, joinNames(workloads()))
		}
		cfg.workloads = []workload{w}
	}
	switch *trace {
	case "":
		cfg.untraced, cfg.traced = true, true
	case "0":
		cfg.untraced = true
	case "1":
		cfg.traced = true
	default:
		return fmt.Errorf("-trace %q: want 0 or 1", *trace)
	}
	if err := ensureOut(cfg.out); err != nil {
		return err
	}
	if *selfcheck {
		return selfCheck(stdout, cfg)
	}

	res, err := measureAll(cfg)
	if err != nil {
		return err
	}
	printResult(stdout, res)
	if err := writeResult(cfg.out, res); err != nil {
		return err
	}
	if *workloadFlag != "" && *trace != "" {
		// The driver's contract: one workload, one pass, one JSON line last.
		wl := res.Workloads[0]
		metrics := wl.EndToEnd
		if cfg.traced {
			metrics = wl.PerLayer
		}
		fmt.Fprintln(stdout, driverLine(wl, metrics))
	}
	if !res.correct() {
		return errors.New("a cell failed, or tracing changed what was simulated (see FAILED lines and sim_digest_changed above)")
	}
	return nil
}

// coldOp is the child side of setup_s: one op and nothing else, so the
// parent's wall clock around this process is what a tmsim user pays on
// every invocation — process start-up, input construction, first touch
// of every lazily built table.
func coldOp(w workload, seed uint64) error {
	it := newIteration()
	it.calibrate = func() time.Duration { return 0 }
	it.runCalib()
	it.startOp()
	_, err := w.op(&opRun{it: it, seed: seed})
	return err
}

// coldSetup times n fresh processes each running w's op once, with
// setupKernels runs of the calibration kernel before the first and after
// each. It returns the wall times as measured and scaled to the reference
// host: wall × calibNominal / the median of the kernel runs on both sides
// of the process.
func coldSetup(w workload, seed uint64, n int) (scaled, raw []float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("setup_s: cannot find own executable: %w", err)
	}
	kernels := func() []float64 {
		ks := make([]float64, setupKernels)
		for i := range ks {
			ks[i] = calibKernel().Seconds()
		}
		return ks
	}
	before := kernels()
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-cold", w.name, "-seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, nil, fmt.Errorf("setup_s: cold run of %s: %w", w.name, err)
		}
		wall := time.Since(start).Seconds()
		after := kernels()
		raw = append(raw, wall)
		around := append(append([]float64{}, before...), after...)
		scaled = append(scaled, wall*calibNominal.Seconds()/median(around))
		before = after
	}
	return scaled, raw, nil
}

// fanoutSpeedup is one fig5-small op at one worker over the same op at
// one worker per CPU: what harness.Runner's cell-level parallelism buys
// on this host. It is the only place the benchmark runs more than one
// host worker.
func fanoutSpeedup(seed uint64) float64 {
	timeOp := func(workers int) time.Duration {
		start := time.Now()
		// A failing cell is the fig5-small workload's to report, not this ratio's.
		_, _ = harness.Parallel(workers).Figure5(smallOptions(seed), harness.ScaleSmall)
		return time.Since(start)
	}
	serial := timeOp(1)
	return float64(serial) / float64(timeOp(runtime.NumCPU()))
}

// measureAll runs the selected workloads and passes in this process.
func measureAll(cfg config) (*result, error) {
	res := &result{
		Schema:       resultSchema,
		CalibVersion: calibVersion,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Date:         today(),
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	cold, batches := coldSamples, microBatches
	minIters := 2 // the determinism check needs a pair
	if cfg.quick {
		budget, cold, batches, minIters = 0, 1, 1, 1
	}

	type state struct {
		s        *session
		setup    []float64 // scaled to the reference host
		setupRaw []float64 // as measured
		untraced *pass
		traced   *pass
		shares   map[string]float64
		spent    time.Duration
	}
	var states []*state
	for _, w := range cfg.workloads {
		st := &state{s: &session{w: w, seed: cfg.seed}, untraced: &pass{}}
		states = append(states, st)
		if cfg.untraced {
			var err error
			if st.setup, st.setupRaw, err = coldSetup(w, cfg.seed, cold); err != nil {
				return nil, err
			}
		}
		if !cfg.quick {
			st.s.step(&pass{}) // warm-up: lazy set-up and heap growth finish before timing
		}
	}

	// Untraced iterations, interleaved in rounds — one slice of every
	// workload per round — so a slow phase of the host falls on all
	// workloads alike. A traced-only run still needs a short untraced
	// reference for the trace overhead and the digest comparison.
	untracedBudget := budget
	if !cfg.untraced {
		untracedBudget = budget * 3 / 10
	}
	for remaining := true; remaining; {
		remaining = false
		for _, st := range states {
			if st.untraced.iterations() >= minIters && st.spent >= untracedBudget {
				continue
			}
			remaining = true
			start := time.Now()
			st.s.step(st.untraced)
			st.spent += time.Since(start)
		}
	}

	var micro *pass
	fanout := 0.0
	if cfg.traced {
		tracedBudget := budget * 4 / 10
		for _, st := range states {
			st.traced = &pass{}
			var err error
			if st.shares, err = st.s.measureTraced(st.traced, tracedBudget, minIters); err != nil {
				return nil, err
			}
			if st.s.w.name == "layer-micro" {
				micro = st.traced
			}
		}
		if micro == nil {
			w, _ := findWorkload("layer-micro")
			s := &session{w: w, seed: cfg.seed}
			if !cfg.quick {
				s.step(&pass{})
			}
			micro = &pass{}
			for micro.iterations() < batches {
				s.step(micro)
			}
		}
		fanout = fanoutSpeedup(cfg.seed)
	}

	for _, st := range states {
		u := st.untraced
		wl := &workloadResult{
			Name:       st.s.w.name,
			Iterations: u.iterations(),
			Attempted:  u.attempted,
			Failed:     u.failed,
			Failures:   u.failures,
			Digest:     u.digest(),
		}
		if cfg.untraced {
			wl.EndToEnd = endToEndValues(u, st.setup)
			wl.SetupRawS = median(st.setupRaw)
		}
		if t := st.traced; t != nil {
			wl.Attempted += t.attempted
			wl.Failed += t.failed
			wl.Failures = append(wl.Failures, t.failures...)
			wl.TracedDigest = t.digest()
			wl.DigestChanged = wl.TracedDigest != wl.Digest
			wl.PerLayer = perLayerValues(u, t, st.shares, micro, fanout)
			wl.CriticalCell, _ = u.critical()
			if err := writeTrace(cfg.out, wl.Name, t); err != nil {
				return nil, err
			}
		}
		res.Workloads = append(res.Workloads, wl)
	}
	return res, nil
}
