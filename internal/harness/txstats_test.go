package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/txstats"
)

// txstatsOptions is testOptions with lifecycle accounting enabled.
func txstatsOptions() Options {
	opt := testOptions()
	opt.TxStats = true
	return opt
}

// TestReportTxStatsSectionDeterministicAcrossWorkers is the acceptance criterion
// beside TestReportMetricsSectionDeterministicAcrossWorkers and its contention
// sibling: the full txstats JSON (per-cell reports + aggregate, latency
// percentiles included) must be byte-identical between a serial and a
// parallel sweep.
func TestReportTxStatsSectionDeterministicAcrossWorkers(t *testing.T) {
	sectionDeterministicAcrossWorkers(t, txstatsOptions(), SectionTxStats)
}

// TestReportTxStatsSectionSchedulerBitIdentical is the txstats counterpart of
// TestScaleSweepSchedulerBitIdentical: the report must be byte-identical
// whether the cells ran under the run-ahead scheduler or the reference
// scheduler — the recorder observes simulated time only, so the engine's
// host-side execution strategy must not leak into it.
func TestReportTxStatsSectionSchedulerBitIdentical(t *testing.T) {
	run := func(reference bool) []byte {
		opt := txstatsOptions()
		opt.Params.ReferenceScheduler = reference
		return renderSection(t, 1, sweepJobs(t, opt), SectionTxStats)
	}
	if !bytes.Equal(run(false), run(true)) {
		t.Error("txstats report differs between the fast and reference schedulers")
	}
}

// TestRunTxStats: a harness run with accounting enabled returns a frozen
// report whose totals obey the cycle-split identity and appear as no
// txstats.* metric; a run without it records nothing.
func TestRunTxStats(t *testing.T) {
	f, _ := FindWorkload("kmeans-low", ScaleSmall)
	res := Run(UFOHybrid, f.New(), 2, txstatsOptions())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	rep := res.TxStats
	if rep == nil {
		t.Fatal("Result.TxStats is nil with Options.TxStats set")
	}
	if rep.Begun == 0 || rep.Committed == 0 {
		t.Fatalf("no transactions recorded: %+v", rep)
	}
	if m := res.Metrics.Get("txstats.committed"); m != nil {
		t.Fatalf("txstats.committed metric = %+v; the report is its only home", m)
	}
	if rep.Latency == nil || rep.Latency.Count != rep.Committed {
		t.Fatalf("latency histogram count = %+v, want %d commits", rep.Latency, rep.Committed)
	}
	// Every committed transaction's latency decomposes exactly: the five
	// split buckets sum to the histogram's total latency plus whatever
	// in-flight transactions wasted (they have no latency sample).
	split := rep.UsefulCycles + rep.WastedCycles + rep.BackoffCycles +
		rep.RetryWaitCycles + rep.OverheadCycles
	if rep.InFlight == 0 && split != rep.Latency.Sum {
		t.Fatalf("cycle split %d != total latency %d", split, rep.Latency.Sum)
	}
	// Disabled by default: no report, and nothing recorded.
	off := Run(UFOHybrid, f.New(), 2, testOptions())
	if off.Err != nil {
		t.Fatal(off.Err)
	}
	if off.TxStats != nil {
		t.Fatal("txstats report produced without Options.TxStats")
	}
	if m := off.Metrics.Get("txstats.begun"); m != nil {
		t.Fatalf("txstats metrics leaked into a disabled run: %+v", m)
	}
}

// TestLatencySweep: the latency experiment forces accounting on and
// yields a report for every (system, threads) cell, rendered with
// percentile columns.
func TestLatencySweep(t *testing.T) {
	data, err := Parallel(1).Latency(testOptions(), ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("latency sweep returned no workloads")
	}
	for _, d := range data {
		for _, sys := range Figure5Systems {
			for _, threads := range ThreadCounts(ScaleSmall) {
				res := d.Cells[sys][threads]
				if res.TxStats == nil {
					t.Fatalf("%s/%s/%d: no txstats report", d.Workload, sys, threads)
				}
				if res.TxStats.Committed == 0 {
					t.Fatalf("%s/%s/%d: zero commits", d.Workload, sys, threads)
				}
			}
		}
	}
	var buf bytes.Buffer
	PrintLatency(&buf, data[:1], ScaleSmall)
	for _, want := range []string{"P50", "P99.9", "attempts", "wasted", data[0].Workload} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("PrintLatency output missing %q:\n%s", want, buf.String())
		}
	}
}

// runColliderTxStats runs the two-proc collider on kind with a lifecycle
// recorder attached and returns the frozen report.
func runColliderTxStats(t *testing.T, kind SystemKind, syscall bool) *txstats.Report {
	t.Helper()
	opt := testOptions()
	params := opt.Params
	params.Procs = 2
	m := machine.New(params)
	rec := txstats.New(2)
	m.Observe(txstats.Kinds, rec)
	sys := Build(kind, m, opt)
	wl := &collider{iters: 12, syscall: syscall}
	wl.Init(m, 2)
	bodies := make([]func(*machine.Proc), 2)
	for i := 0; i < 2; i++ {
		ex := sys.Exec(m.Proc(i))
		tid := i
		bodies[i] = func(*machine.Proc) { wl.Thread(tid, ex) }
	}
	m.Run(bodies)
	if err := wl.Validate(m); err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return rec.Report()
}

// TestColliderTxStatsPerSystem: every Figure 5 system under the forced
// two-proc collision produces an exact, internally consistent lifecycle
// report — 24 begun and committed, one latency sample per commit, the
// cycle-split identity holding to the cycle, wasted cycles fully
// attributed (aggressor ranking + unknown = total), and attempt counts
// at least one per commit. The collision guarantees real conflicts, so
// wasted work and abort buckets must be non-empty.
func TestColliderTxStatsPerSystem(t *testing.T) {
	for _, kind := range Figure5Systems {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rep := runColliderTxStats(t, kind, false)
			if rep.Begun != 24 || rep.Committed != 24 || rep.InFlight != 0 {
				t.Fatalf("begun/committed/in-flight = %d/%d/%d, want 24/24/0",
					rep.Begun, rep.Committed, rep.InFlight)
			}
			if rep.Latency == nil || rep.Latency.Count != 24 {
				t.Fatalf("latency samples = %+v, want 24", rep.Latency)
			}
			split := rep.UsefulCycles + rep.WastedCycles + rep.BackoffCycles +
				rep.RetryWaitCycles + rep.OverheadCycles
			if split != rep.Latency.Sum {
				t.Fatalf("cycle split %d != total latency %d", split, rep.Latency.Sum)
			}
			if rep.WastedCycles == 0 || len(rep.Aborts) == 0 {
				t.Fatalf("collision produced no wasted work: %+v", rep)
			}
			var attributed uint64
			for _, a := range rep.AggressorWasted {
				if a.Proc < 0 || a.Proc >= 2 {
					t.Fatalf("aggressor out of range: %+v", a)
				}
				attributed += a.Cycles
			}
			if attributed+rep.UnknownWasted != rep.WastedCycles {
				t.Fatalf("attributed %d + unknown %d != wasted %d",
					attributed, rep.UnknownWasted, rep.WastedCycles)
			}
			var bucketWaste, attempts uint64
			for _, b := range rep.Aborts {
				bucketWaste += b.WastedCycles
			}
			if bucketWaste != rep.WastedCycles {
				t.Fatalf("abort buckets account %d wasted cycles, total %d",
					bucketWaste, rep.WastedCycles)
			}
			for _, pc := range rep.AttemptsByPath {
				attempts += pc.Count
			}
			if attempts < 24 || rep.Attempts == nil || rep.Attempts.Sum != attempts {
				t.Fatalf("attempts = %d (histogram %+v), want >= 24 and consistent",
					attempts, rep.Attempts)
			}
			// Exactness: the same deterministic run yields the same report,
			// tuple for tuple.
			if again := runColliderTxStats(t, kind, false); !reflect.DeepEqual(rep, again) {
				t.Fatalf("collider report not reproducible:\n%+v\nvs\n%+v", rep, again)
			}
		})
	}
}

// TestColliderTxStatsConflictAttribution: in the two-proc collision the
// peer processor is the only possible aggressor, so conflict-abort wasted
// cycles must land in its AggressorWasted entry, not in UnknownWasted.
func TestColliderTxStatsConflictAttribution(t *testing.T) {
	rep := runColliderTxStats(t, UnboundedHTM, false)
	var conflictWaste uint64
	for _, b := range rep.Aborts {
		if b.Reason == machine.AbortConflict.String() {
			conflictWaste += b.WastedCycles
		}
	}
	if conflictWaste == 0 {
		t.Fatalf("no conflict aborts in collider run: %+v", rep.Aborts)
	}
	var attributed uint64
	for _, a := range rep.AggressorWasted {
		attributed += a.Cycles
	}
	if attributed == 0 {
		t.Fatalf("conflict wasted cycles (%d) not attributed to any aggressor: %+v",
			conflictWaste, rep)
	}
}

// TestColliderTxStatsUFOPath: with thread 0 forced into the software
// path, the UFO hybrid records both hardware and strongly-atomic
// software (ufo) attempts — the path split the wasted-work breakdown
// keys on.
func TestColliderTxStatsUFOPath(t *testing.T) {
	rep := runColliderTxStats(t, UFOHybrid, true)
	paths := map[string]uint64{}
	for _, pc := range rep.AttemptsByPath {
		paths[pc.Path] = pc.Count
	}
	if paths["htm"] == 0 || paths["ufo"] == 0 {
		t.Fatalf("expected both htm and ufo attempts, got %+v", rep.AttemptsByPath)
	}
	commits := map[string]uint64{}
	for _, pc := range rep.CommitsByPath {
		commits[pc.Path] = pc.Count
	}
	if commits["ufo"] == 0 {
		t.Fatalf("syscall-forced thread should commit on the ufo path: %+v", rep.CommitsByPath)
	}
}
