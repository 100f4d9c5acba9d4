package main

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/conformance/litmus"
	"repro/internal/harness"
)

// session is one invocation's resolved state: the parsed flags, what
// they resolve to, and where output goes. An experiment's run closure
// gets nothing else.
type session struct {
	cfg    *config
	opt    harness.Options
	runner *harness.Runner
	stdout io.Writer
}

// experiment is one row of the table below: one -experiment value.
type experiment struct {
	name string
	// inAll: part of the -experiment all sequence (the paper's
	// artifacts; supplements are run by name).
	inAll bool
	// flags only mean something when this row runs; validate rejects
	// them under any other -experiment value.
	flags []string
	// run prints the experiment to s.stdout. It prints what it measured
	// before returning an error, so a sweep with failed cells still
	// shows the rest.
	run func(s *session) error
}

// allExperiments is the -experiment value (and default) that runs every
// inAll row in table order.
const allExperiments = "all"

// experiments is the one place an experiment is named. The dispatch,
// the -experiment usage string, the all sequence and the "-x requires
// -experiment y" validation are all read from it. (It lives here and
// not in harness because litmus, which one row runs, imports harness.)
var experiments = []experiment{
	{name: "params", inAll: true, run: func(s *session) error {
		harness.PrintParams(s.stdout, s.opt)
		return nil
	}},
	{name: "fig5", inAll: true, flags: []string{"seeds", "csv"}, run: func(s *session) error {
		if s.cfg.seeds > 1 {
			stats, err := s.runner.Figure5Seeds(s.opt, s.cfg.scale, s.cfg.seeds)
			harness.PrintSeedStats(s.stdout, stats)
			return err
		}
		data, err := s.runner.Figure5(s.opt, s.cfg.scale)
		harness.PrintFigure5(s.stdout, data, s.cfg.scale)
		if err != nil {
			return err
		}
		return s.writeOut(s.cfg.csvPath, "csv", func(w io.Writer) error {
			return harness.WriteFigure5CSV(w, data, s.cfg.scale)
		})
	}},
	{name: "fig6", inAll: true, run: sweep((*harness.Runner).Figure6, harness.PrintFigure6)},
	{name: "fig7", inAll: true, run: sweepScaled((*harness.Runner).Figure7, harness.PrintFigure7)},
	{name: "fig8", inAll: true, run: sweep((*harness.Runner).Figure8, harness.PrintFigure8)},
	{name: "ablate", inAll: true, run: sweep((*harness.Runner).Ablations, harness.PrintAblations)},
	{name: "extended", inAll: true, run: sweepScaled((*harness.Runner).Extended, harness.PrintFigure5)},
	{name: "footprints", inAll: true, run: sweep((*harness.Runner).Footprints, harness.PrintFootprints)},
	{name: "policies", inAll: true, run: sweep((*harness.Runner).PolicySweep, harness.PrintPolicySweep)},
	{name: "litmus", inAll: true, flags: []string{"litmus-out"}, run: func(s *session) error {
		lc := litmus.FullConfig()
		if s.cfg.scale == harness.ScaleSmall {
			lc = litmus.SmallConfig()
		}
		rep := litmus.Run(s.runner, lc)
		rep.WriteText(s.stdout)
		if err := s.writeOut(s.cfg.litmusOut, "litmus report", rep.WriteJSON); err != nil {
			return err
		}
		if n := len(rep.Failures); n > 0 {
			return fmt.Errorf("litmus: %d conformance failure(s)", n)
		}
		return nil
	}},
	{name: "latency", run: sweepScaled((*harness.Runner).Latency, harness.PrintLatency)},
	{name: "scale", run: sweepScaled((*harness.Runner).ScaleSweep, harness.PrintScaleSweep)},
	{name: "oltp", flags: []string{"oltp-out", "oltp-arrival"},
		run: func(s *session) error {
			rep, err := s.runner.OLTP(s.opt, s.cfg.scale, s.cfg.oltp)
			harness.PrintOLTP(s.stdout, rep)
			if err != nil {
				return err
			}
			return s.writeOut(s.cfg.oltpOut, fmt.Sprintf("oltp report for %d points", len(rep.Points)), rep.WriteJSON)
		}},
}

// sweepScaled is the common row: run one Runner sweep method, print
// what it measured (failed cells included), report the sweep's error.
func sweepScaled[T any](run func(*harness.Runner, harness.Options, harness.Scale) (T, error),
	print func(io.Writer, T, harness.Scale)) func(*session) error {
	return func(s *session) error {
		data, err := run(s.runner, s.opt, s.cfg.scale)
		print(s.stdout, data, s.cfg.scale)
		return err
	}
}

// sweep is sweepScaled for a printer that does not take the scale.
func sweep[T any](run func(*harness.Runner, harness.Options, harness.Scale) (T, error),
	print func(io.Writer, T)) func(*session) error {
	return sweepScaled(run, func(w io.Writer, data T, _ harness.Scale) { print(w, data) })
}

// experimentNames lists every -experiment value in table order, all
// last: the usage string and the unknown-experiment error.
func experimentNames() []string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return append(names, allExperiments)
}

// selected reports whether -experiment value runs row e.
func (e experiment) selected(value string) bool {
	return e.name == value || (e.inAll && value == allExperiments)
}

// checkExperiment vets -experiment and the flags rows own: a flag set
// for a row that will not run would otherwise be silently ignored.
// traced is -trace-out, which runs its one cell instead of any row.
func checkExperiment(value string, traced bool, set map[string]bool) error {
	if !slices.Contains(experimentNames(), value) {
		return fmt.Errorf("unknown experiment %q (want one of %v)", value, experimentNames())
	}
	for _, e := range experiments {
		if e.selected(value) && !traced {
			continue
		}
		for _, f := range e.flags {
			if !set[f] {
				continue
			}
			if traced {
				return fmt.Errorf("-%s has no effect with -trace-out, which runs its one cell instead of -experiment %s", f, e.name)
			}
			orAll := ""
			if e.inAll {
				orAll = " (or " + allExperiments + ")"
			}
			return fmt.Errorf("-%s requires -experiment %s%s", f, e.name, orAll)
		}
	}
	return nil
}

// runExperiments runs every row -experiment selects, in table order,
// stopping at the first error — or, under -trace-out, the traced cell
// instead of any row.
func (s *session) runExperiments() error {
	if s.cfg.traceOut != "" {
		return s.runTraced()
	}
	for _, e := range experiments {
		if !e.selected(s.cfg.experiment) {
			continue
		}
		start := time.Now()
		if err := e.run(s); err != nil {
			return err
		}
		fmt.Fprintf(s.stdout, "  [%s completed in %v]\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
