package harness

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/tm"
)

// TestReportMetricsSectionDeterministicAcrossWorkers is the acceptance-criteria
// regression: the full metrics JSON (per-cell snapshots + aggregate)
// must be byte-identical between a serial and a parallel sweep.
func TestReportMetricsSectionDeterministicAcrossWorkers(t *testing.T) {
	sectionDeterministicAcrossWorkers(t, testOptions(), SectionMetrics)
}

// TestResultMetricsMatchLegacyCounters: the registry snapshot must agree
// with the fields it mirrors, so the schema can never drift from the
// counters the paper's tables are printed from.
func TestResultMetricsMatchLegacyCounters(t *testing.T) {
	f, _ := FindWorkload("kmeans-low", ScaleSmall)
	res := Run(UFOHybrid, f.New(), 2, testOptions())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	s := res.Metrics
	if s == nil {
		t.Fatal("Result.Metrics is nil")
	}
	checks := []struct {
		metric string
		want   uint64
	}{
		{tm.MetricHWCommits, res.Stats.HWCommits},
		{tm.MetricSWCommits, res.Stats.SWCommits},
		{tm.MetricFailovers, res.Stats.Failovers},
		{tm.MetricSWAborts, res.Stats.SWAborts},
		{tm.MetricSWStalls, res.Stats.SWStalls},
		{tm.MetricNTStalls, res.Stats.NTStalls},
		{tm.MetricRetries, res.Stats.Retries},
		{tm.MetricHWRetries, res.Stats.HWRetries},
		{machine.MetricCycles, res.Cycles},
		{machine.MetricNacks, res.Machine.Nacks},
		{machine.MetricUFOFaults, res.Machine.UFOFaults},
		{machine.MetricUFOKillsTrue, res.Machine.UFOKillsTrue},
		{machine.MetricUFOKillsFalse, res.Machine.UFOKillsFalse},
		{machine.MetricSTMOlder, res.Machine.ConflictSTMOlder},
		{machine.MetricHTMOlder, res.Machine.ConflictHTMOlder},
	}
	for _, c := range checks {
		m := s.Get(c.metric)
		if m == nil {
			t.Errorf("metric %q missing from snapshot", c.metric)
			continue
		}
		if m.Value != c.want {
			t.Errorf("%s = %d, want %d", c.metric, m.Value, c.want)
		}
	}
	for reason := 1; reason < machine.NumAbortReasons; reason++ {
		name := machine.MetricAbortPrefix + machine.AbortReason(reason).String()
		m := s.Get(name)
		if m == nil {
			t.Errorf("metric %q missing", name)
			continue
		}
		if m.Value != res.Machine.HWAbortsByReason[reason] {
			t.Errorf("%s = %d, want %d", name, m.Value, res.Machine.HWAbortsByReason[reason])
		}
	}
	// The footprint histogram in the snapshot is the machine's own.
	hw, want := s.Get(machine.MetricHWFootprint), res.Machine.HWFootprint.Snapshot()
	if hw == nil || hw.Hist.Count != want.Count || hw.Hist.Sum != want.Sum {
		t.Errorf("hw footprint hist = %+v, want count=%d sum=%d", hw, want.Count, want.Sum)
	}
	// Per-processor breakdowns exist for both procs and sum to the totals.
	var hits uint64
	for _, pp := range []string{"machine.proc.00.", "machine.proc.01."} {
		for _, leaf := range []string{"cycles", "l1_hits", "l1_misses"} {
			m := s.Get(pp + leaf)
			if m == nil {
				t.Fatalf("metric %q missing", pp+leaf)
			}
			if leaf == "l1_hits" {
				hits += m.Value
			}
		}
	}
	if total := s.Get(machine.MetricL1Hits); total == nil || total.Value != hits {
		t.Errorf("l1 hit total %v does not match per-proc sum %d", total, hits)
	}
}

// TestReportAggregateSumsMetrics: the aggregate is the cell-wise sum.
func TestReportAggregateSumsMetrics(t *testing.T) {
	var rep Report
	r := Parallel(1)
	r.Collect = rep.Collector()
	f, _ := FindWorkload("kmeans-low", ScaleSmall)
	opt := testOptions()
	jobs := []Job{
		{System: UFOHybrid, Factory: f, Threads: 1, Opt: opt},
		{System: UFOHybrid, Factory: f, Threads: 2, Opt: opt},
	}
	results, err := r.Execute(jobs)
	if err != nil {
		t.Fatal(err)
	}
	agg := rep.Aggregate().Metrics
	want := results[0].Stats.HWCommits + results[1].Stats.HWCommits
	if got := agg.Get(tm.MetricHWCommits); got == nil || got.Value != want {
		t.Fatalf("aggregate hw commits = %v, want %d", got, want)
	}
}

// TestCellSnapshotIsAllocatedOnce: on every system, a cell with both
// observers on writes no more metrics than runOn reserved room for, so
// its snapshot's slice never grew past the one allocation.
func TestCellSnapshotIsAllocatedOnce(t *testing.T) {
	f, _ := FindWorkload("kmeans-low", ScaleSmall)
	opt := testOptions()
	opt.Contention, opt.TxStats = true, true
	for _, sys := range AllSystems {
		threads := 4
		if sys == Sequential {
			threads = 1
		}
		res := Run(sys, f.New(), threads, opt)
		if res.Err != nil {
			t.Fatalf("%s: %v", sys, res.Err)
		}
		if got, c := res.Metrics.Metrics, cellMetrics(threads); cap(got) != c {
			t.Errorf("%s on %d processors: %d metrics in a slice of capacity %d, want the %d reserved", sys, threads, len(got), cap(got), c)
		}
	}
}
