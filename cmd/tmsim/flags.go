package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/cache"
	"repro/internal/cm"
	"repro/internal/harness"
	"repro/internal/oltp"
)

// config carries every tmsim flag value plus the set of flags the user
// explicitly passed (so validation can tell a default apart from an
// explicit choice).
type config struct {
	experiment string
	scaleName  string
	policy     string
	seed       uint64
	seeds      int
	csvPath    string
	parallel   int
	progress   bool
	metricsOut string
	txstatsOut string

	traceOut      string
	traceFormat   string
	traceWorkload string
	traceSystem   string
	traceThreads  int

	litmusOut string

	oltpOut     string
	oltpArrival string
	oltp        harness.OLTPSweepConfig // the -oltp-arrival sweep shape

	contentionOut string
	reportFormat  string

	cpuProfile string
	memProfile string

	set map[string]bool

	// What validate resolved -scale, -policy, -trace-system and
	// -trace-workload to (and -oltp-arrival, into oltp.Arrival).
	scale    harness.Scale
	cmKind   cm.Kind
	system   harness.SystemKind
	workload harness.WorkloadFactory
}

// parseConfig parses argv (without the program name), records which
// flags were explicitly set, and validates the combination. Errors are
// user errors: main reports them and exits 2.
func parseConfig(args []string, errOut io.Writer) (*config, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("tmsim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&cfg.experiment, "experiment", allExperiments, strings.Join(experimentNames(), " | "))
	fs.StringVar(&cfg.scaleName, "scale", "full", "small | full")
	fs.StringVar(&cfg.policy, "policy", "exp", "contention-management policy: exp | linear | karma | serialize")
	fs.Uint64Var(&cfg.seed, "seed", 1, "machine RNG seed")
	fs.IntVar(&cfg.seeds, "seeds", 0, "run fig5 across seeds 1..N and report mean/min/max")
	fs.StringVar(&cfg.csvPath, "csv", "", "also write the fig5 sweep as CSV to this file")
	fs.IntVar(&cfg.parallel, "parallel", 0, "sweep worker count (0 = one per CPU, 1 = serial)")
	fs.BoolVar(&cfg.progress, "progress", false, "report sweep progress (cells done/total, ETA) on stderr")
	fs.StringVar(&cfg.metricsOut, "metrics-out", "", "write per-cell + aggregate metrics JSON to this file")
	fs.StringVar(&cfg.txstatsOut, "txstats-out", "", "write the per-transaction lifecycle (txstats) report as JSON to this file")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "run one traced cell and write its machine trace to this file (skips experiments)")
	fs.StringVar(&cfg.traceFormat, "trace-format", "text", "trace export format: text | jsonl | chrome")
	fs.StringVar(&cfg.traceWorkload, "trace-workload", "genome", "workload for the traced cell")
	fs.StringVar(&cfg.traceSystem, "trace-system", "ufo-hybrid", "TM system for the traced cell")
	fs.IntVar(&cfg.traceThreads, "trace-threads", 4, "thread count for the traced cell")
	fs.StringVar(&cfg.litmusOut, "litmus-out", "", "also write the litmus conformance report as JSON to this file")
	fs.StringVar(&cfg.oltpOut, "oltp-out", "", "also write the open-loop service (tmsim-oltp/v1) report as JSON to this file")
	fs.StringVar(&cfg.oltpArrival, "oltp-arrival", "poisson", "oltp arrival process: poisson | mmpp")
	fs.StringVar(&cfg.contentionOut, "contention-out", "", "write the conflict-attribution (contention) report to this file")
	fs.StringVar(&cfg.reportFormat, "report", "json", "contention report format: json | html | text")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a host CPU profile (runtime/pprof) to this file")
	fs.StringVar(&cfg.memProfile, "memprofile", "", "write a host heap profile (runtime/pprof) to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	cfg.set = make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { cfg.set[f.Name] = true })
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// validate rejects invalid values and contradictory flag combinations
// up front, so a long sweep never runs only to fail at output time, and
// keeps what the names it vetted resolve to.
func (cfg *config) validate() error {
	// Values first, whether or not the flag that gives them meaning was
	// passed (the defaults are valid): a typo'd -trace-system must list
	// the valid names even without -trace-out, never reach harness.build.
	// Combinations ("-x requires -y") come after.
	var err error
	switch cfg.scaleName {
	case "small":
		cfg.scale = harness.ScaleSmall
	case "full":
		cfg.scale = harness.ScaleFull
	default:
		return fmt.Errorf("unknown scale %q (want small or full)", cfg.scaleName)
	}
	if cfg.cmKind, err = cm.ParseKind(cfg.policy); err != nil {
		return fmt.Errorf("-policy %q: want one of %v", cfg.policy, cm.Kinds)
	}
	if cfg.seeds < 0 {
		return fmt.Errorf("-seeds %d: want >= 0", cfg.seeds)
	}
	if cfg.parallel < 0 {
		return fmt.Errorf("-parallel %d: want >= 0", cfg.parallel)
	}
	switch cfg.traceFormat {
	case "text", "jsonl", "chrome":
	default:
		return fmt.Errorf("unknown trace format %q (want text, jsonl, or chrome)", cfg.traceFormat)
	}
	switch cfg.reportFormat {
	case "json", "html", "text":
	default:
		return fmt.Errorf("unknown report format %q (want json, html, or text)", cfg.reportFormat)
	}

	if cfg.oltp.Arrival, err = oltp.ParseArrival(cfg.oltpArrival); err != nil {
		return fmt.Errorf("-oltp-arrival: %w", err)
	}
	var ok bool
	if cfg.workload, ok = harness.FindWorkload(cfg.traceWorkload, cfg.scale); !ok {
		return fmt.Errorf("unknown workload %q for -trace-workload", cfg.traceWorkload)
	}
	if cfg.system, err = harness.ParseSystem(cfg.traceSystem); err != nil {
		return fmt.Errorf("-trace-system: %w", err)
	}
	if cfg.traceThreads < 1 || cfg.traceThreads > cache.MaxProcs {
		return fmt.Errorf("-trace-threads %d: want 1..%d (the simulated machine's processor limit)", cfg.traceThreads, cache.MaxProcs)
	}

	// -csv holds one seed's sweep; the multi-seed run prints statistics
	// and has no per-cell table to write.
	if cfg.seeds > 1 && cfg.csvPath != "" {
		return fmt.Errorf("-csv cannot be combined with -seeds %d: the CSV is the single-seed sweep", cfg.seeds)
	}
	// Flags an experiment row owns only mean something when it runs;
	// trace and contention flags only with their destination flag.
	if err := checkExperiment(cfg.experiment, cfg.traceOut != "", cfg.set); err != nil {
		return err
	}
	for _, dep := range []struct {
		dest  string
		given bool
		flags []string
	}{
		{"trace-out", cfg.traceOut != "", []string{"trace-format", "trace-workload", "trace-system", "trace-threads"}},
		{"contention-out", cfg.contentionOut != "", []string{"report"}},
	} {
		for _, f := range dep.flags {
			if !dep.given && cfg.set[f] {
				return fmt.Errorf("-%s requires -%s", f, dep.dest)
			}
		}
	}
	// The sequential executor has no synchronization: on more than one
	// processor its threads race and the workload's invariant fails.
	if cfg.system == harness.Sequential && cfg.traceThreads != 1 {
		return fmt.Errorf("-trace-system sequential runs on one processor: pass -trace-threads 1")
	}
	return nil
}
