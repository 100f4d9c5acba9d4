package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestParseConfigValidation is the table-driven contract for tmsim's
// flag validation: contradictory combinations are rejected with a clear
// error before any simulation runs.
func TestParseConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; empty means the args must parse
	}{
		{"defaults", nil, ""},
		{"sweep with outputs", []string{"-experiment", "fig5", "-scale", "small", "-metrics-out", "m.json"}, ""},
		{"traced cell", []string{"-trace-out", "t.json", "-trace-workload", "genome", "-trace-system", "ufo-hybrid", "-trace-threads", "2"}, ""},
		{"contention json", []string{"-contention-out", "c.json"}, ""},
		// The top-K cut and the time-series window are constants of
		// internal/contention, not flags.
		{"contention tuned", []string{"-contention-out", "c.html", "-contention-topk", "4", "-timeseries-window", "5000"}, "flag provided but not defined: -contention-topk"},
		{"contention with traced cell", []string{"-trace-out", "t.json", "-contention-out", "c.json"}, ""},
		{"profiles", []string{"-cpuprofile", "cpu.out", "-memprofile", "mem.out"}, ""},

		{"unknown scale", []string{"-scale", "medium"}, "unknown scale"},
		{"unknown experiment", []string{"-experiment", "fig9"}, "unknown experiment"},
		{"negative seeds", []string{"-seeds", "-1"}, "-seeds"},
		{"negative parallel", []string{"-parallel", "-2"}, "-parallel"},
		{"positional junk", []string{"fig5"}, "unexpected arguments"},

		// An output's file name picks its format (main_test's
		// TestFileNamePicksFormat): there is no format flag to pass.
		{"trace-format without trace-out", []string{"-trace-format", "chrome"}, "flag provided but not defined: -trace-format"},
		{"trace-workload without trace-out", []string{"-trace-workload", "genome"}, "-trace-workload requires -trace-out"},
		{"trace-system without trace-out", []string{"-trace-system", "tl2"}, "-trace-system requires -trace-out"},
		{"hybrid-norec traced cell", []string{"-trace-out", "t.json", "-trace-system", "hybrid-norec"}, ""},
		{"trace-threads without trace-out", []string{"-trace-threads", "2"}, "-trace-threads requires -trace-out"},
		// A trace has no limit (tail -n the file): -trace-limit is not a
		// flag, with or without -trace-out.
		{"trace-limit without trace-out", []string{"-trace-limit", "64"}, "flag provided but not defined: -trace-limit"},
		{"bad trace format", []string{"-trace-out", "t.json", "-trace-format", "xml"}, "flag provided but not defined: -trace-format"},
		{"any trace file name", []string{"-trace-out", "t.xml"}, ""},
		{"unknown trace workload", []string{"-trace-out", "t.json", "-trace-workload", "nope"}, "unknown workload"},
		{"unknown trace system", []string{"-trace-out", "t.json", "-trace-system", "nope"}, "unknown system"},
		// A typo'd system name must list the valid names even when the
		// flag is otherwise inert (no -trace-out): never reach the
		// harness.build panic (PR-3 flag-validation contract).
		{"typo'd system without trace-out", []string{"-trace-system", "no-such-system"}, "unknown system \"no-such-system\""},
		{"typo'd system lists valid names", []string{"-trace-system", "ufo-hybird"}, "hybrid-norec"},
		{"bad trace threads", []string{"-trace-out", "t.json", "-trace-threads", "0"}, "-trace-threads"},
		{"bad trace limit", []string{"-trace-out", "t.json", "-trace-limit", "0"}, "flag provided but not defined: -trace-limit"},
		// Past cache.MaxProcs the machine's constructor panics: a usage error.
		{"trace threads at the machine's limit", []string{"-trace-out", "t.json", "-trace-threads", "256"}, ""},
		{"trace threads past the machine's limit", []string{"-trace-out", "t.json", "-trace-threads", "300"}, "-trace-threads 300: want 1..256"},
		// The sequential executor is unsynchronized: one processor only.
		{"sequential traced cell", []string{"-trace-out", "t.txt", "-trace-system", "sequential", "-trace-threads", "1"}, ""},
		{"sequential traced cell on the default threads", []string{"-trace-out", "t.txt", "-trace-system", "sequential"},
			"-trace-system sequential runs on one processor: pass -trace-threads 1"},

		{"oltp sweep", []string{"-experiment", "oltp", "-scale", "small", "-oltp-out", "o.json"}, ""},
		// The skew and mix the load axis runs at are fixed; the sweep varies
		// them on their own axes. Only -oltp-arrival tunes the sweep.
		{"oltp tuned", []string{"-experiment", "oltp", "-oltp-arrival", "mmpp", "-oltp-theta", "1.2",
			"-oltp-read-pct", "50", "-oltp-rmw-pct", "45", "-oltp-scan-pct", "5"}, "flag provided but not defined: -oltp-theta"},
		{"oltp-out without oltp", []string{"-oltp-out", "o.json"}, "-oltp-out requires -experiment oltp"},
		{"oltp-arrival without oltp", []string{"-oltp-arrival", "mmpp"}, "-oltp-arrival requires -experiment oltp"},
		{"oltp-theta without oltp", []string{"-experiment", "fig5", "-oltp-theta", "0.5"}, "flag provided but not defined: -oltp-theta"},
		{"unknown arrival process", []string{"-experiment", "oltp", "-oltp-arrival", "uniform"}, "unknown arrival process"},
		{"negative theta", []string{"-experiment", "oltp", "-oltp-theta", "-0.1"}, "flag provided but not defined: -oltp-theta"},
		{"pct out of range", []string{"-experiment", "oltp", "-oltp-read-pct", "120"}, "flag provided but not defined: -oltp-read-pct"},
		{"mix does not sum", []string{"-experiment", "oltp", "-oltp-read-pct", "50", "-oltp-rmw-pct", "20", "-oltp-scan-pct", "5"}, "flag provided but not defined: -oltp-read-pct"},

		// Flags a table row owns are rejected under any other experiment,
		// not silently ignored (-csv and -seeds used to be).
		{"fig5 csv", []string{"-experiment", "fig5", "-csv", "x.csv"}, ""},
		{"all with seeds and litmus-out", []string{"-seeds", "2", "-litmus-out", "l.json"}, ""},
		{"csv without fig5", []string{"-experiment", "fig6", "-csv", "x.csv"}, "-csv requires -experiment fig5 (or all)"},
		{"seeds without fig5", []string{"-experiment", "latency", "-seeds", "2"}, "-seeds requires -experiment fig5 (or all)"},
		{"csv with seeds", []string{"-experiment", "fig5", "-seeds", "2", "-csv", "y.csv"}, "-csv cannot be combined with -seeds 2"},
		{"litmus-out without litmus", []string{"-experiment", "fig5", "-litmus-out", "l.json"}, "-litmus-out requires -experiment litmus (or all)"},
		// -trace-out runs one cell instead of any row, so no row's flag applies.
		{"csv with trace-out", []string{"-trace-out", "t.json", "-csv", "x.csv"}, "-csv has no effect with -trace-out"},
		{"litmus-out with trace-out", []string{"-trace-out", "t.json", "-litmus-out", "l.json"}, "-litmus-out has no effect with -trace-out"},

		{"report without contention-out", []string{"-report", "html"}, "flag provided but not defined: -report"},
		{"topk without contention-out", []string{"-contention-topk", "4"}, "flag provided but not defined: -contention-topk"},
		{"window without contention-out", []string{"-timeseries-window", "1000"}, "flag provided but not defined: -timeseries-window"},
		{"bad report format", []string{"-contention-out", "c.json", "-report", "pdf"}, "flag provided but not defined: -report"},
		{"any contention file name", []string{"-contention-out", "c.pdf"}, ""},
		{"zero topk", []string{"-contention-out", "c.json", "-contention-topk", "0"}, "flag provided but not defined: -contention-topk"},
		{"zero window with contention", []string{"-contention-out", "c.json", "-timeseries-window", "0"}, "flag provided but not defined: -timeseries-window"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg, err := parseConfig(c.args, io.Discard)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("parseConfig(%v) = %v, want ok", c.args, err)
				}
				if cfg == nil {
					t.Fatal("no config returned")
				}
				return
			}
			if err == nil {
				t.Fatalf("parseConfig(%v) succeeded, want error containing %q", c.args, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %q, want substring %q", err, c.wantErr)
			}
		})
	}
}

// TestParseConfigDefaults: defaults land as documented.
func TestParseConfigDefaults(t *testing.T) {
	cfg, err := parseConfig(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.experiment != "all" || cfg.scaleName != "full" || cfg.seed != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.oltp != harness.DefaultOLTPSweep() {
		t.Fatalf("oltp sweep %+v", cfg.oltp)
	}
	if len(cfg.set) != 0 {
		t.Fatalf("set = %v, want empty", cfg.set)
	}
}

// TestExperimentUsageListsEveryExperiment: the -experiment help text is
// built from the experiments table, so -h names every value run
// dispatches on, and a removed flag is a parse error rather than silently accepted.
func TestExperimentUsageListsEveryExperiment(t *testing.T) {
	var help strings.Builder
	if _, err := parseConfig([]string{"-h"}, &help); err == nil {
		t.Fatal("-h parsed without error")
	}
	usage := help.String()
	i := strings.Index(usage, "-experiment")
	if i < 0 {
		t.Fatalf("-h output lacks -experiment:\n%s", usage)
	}
	line := usage[i:]
	if j := strings.Index(line, "\n  -"); j >= 0 {
		line = line[:j]
	}
	for _, e := range experimentNames() {
		if !strings.Contains(line, e) {
			t.Errorf("-experiment usage omits %q: %s", e, line)
		}
	}
	if _, err := parseConfig([]string{"-sched", "parallel"}, io.Discard); err == nil {
		t.Error("-sched parsed; the flag was removed")
	}
}
