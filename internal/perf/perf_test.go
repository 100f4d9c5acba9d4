package perf

import (
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestMeasureCountsIterationsAndCycles(t *testing.T) {
	var ops int
	e := Measure(Bench{Name: "toy", Op: func() uint64 { ops++; return 100 }}, time.Millisecond)
	if e.Iterations < 1 {
		t.Fatalf("iterations = %d", e.Iterations)
	}
	if ops != e.Iterations+1 { // +1 warm-up
		t.Fatalf("ops = %d, iterations = %d", ops, e.Iterations)
	}
	if e.SimCyclesPerOp != 100 {
		t.Fatalf("SimCyclesPerOp = %v, want 100", e.SimCyclesPerOp)
	}
	if e.NsPerOp <= 0 || e.SimCyclesPerSec <= 0 {
		t.Fatalf("non-positive rates: %+v", e)
	}
}

func TestReportRoundTripAndSchemaCheck(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	r := NewReport("2026-08-05")
	r.Add(Entry{Name: "b", NsPerOp: 2})
	r.Add(Entry{Name: "a", NsPerOp: 1})
	if r.Entries[0].Name != "a" {
		t.Fatal("entries not sorted by name")
	}
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || len(got.Entries) != 2 || got.Date != "2026-08-05" {
		t.Fatalf("round trip mangled report: %+v", got)
	}

	bad := &Report{Schema: "other/v9"}
	badPath := filepath.Join(dir, "bad.json")
	if err := bad.WriteFile(badPath); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(badPath); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
}

func TestCompareGate(t *testing.T) {
	gate := regexp.MustCompile("^Figure5Sweep$")
	base := NewReport("d")
	base.Add(Entry{Name: "Figure5Sweep", NsPerOp: 1000, SimCyclesPerOp: 50})
	base.Add(Entry{Name: "fig5/x", NsPerOp: 100})

	// Within tolerance: pass, even though the ungated entry doubled.
	cur := NewReport("d")
	cur.Add(Entry{Name: "Figure5Sweep", NsPerOp: 1100, SimCyclesPerOp: 50})
	cur.Add(Entry{Name: "fig5/x", NsPerOp: 200})
	if regs := Regressions(Compare(base, cur, gate, 0.15)); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %+v", regs)
	}

	// Beyond tolerance on the gated entry: fail.
	slow := NewReport("d")
	slow.Add(Entry{Name: "Figure5Sweep", NsPerOp: 1200, SimCyclesPerOp: 50})
	regs := Regressions(Compare(base, slow, gate, 0.15))
	if len(regs) != 1 || regs[0].Name != "Figure5Sweep" || regs[0].Missing {
		t.Fatalf("regressions = %+v", regs)
	}

	// Gated entry missing from the current report: fail.
	empty := NewReport("d")
	regs = Regressions(Compare(base, empty, gate, 0.15))
	if len(regs) != 1 || !regs[0].Missing {
		t.Fatalf("missing gated entry not flagged: %+v", regs)
	}

	// Ungated entry missing from the current report (a baseline row
	// whose benchmark was since deleted): informational, not a failure.
	dropped := NewReport("d")
	dropped.Add(Entry{Name: "Figure5Sweep", NsPerOp: 1000, SimCyclesPerOp: 50})
	deltas := Compare(base, dropped, gate, 0.15)
	if regs := Regressions(deltas); len(regs) != 0 {
		t.Fatalf("missing ungated entry tripped the gate: %+v", regs)
	}
	if d := deltas[1]; d.Name != "fig5/x" || !d.Missing || d.Gated {
		t.Fatalf("missing ungated entry not reported as such: %+v", d)
	}

	// Exercise the formatter on every status.
	out := Format(Compare(base, slow, gate, 0.15), 0.15)
	if out == "" {
		t.Fatal("empty format output")
	}
}

// TestSuiteSmoke runs the two cheapest suite entries once each to keep
// the suite wiring honest without paying for a full sweep in unit tests.
func TestSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("suite smoke test is slow")
	}
	benches := Suite()
	if len(benches) == 0 {
		t.Fatal("empty suite")
	}
	byName := map[string]Bench{}
	for _, b := range benches {
		byName[b.Name] = b
	}
	if _, ok := byName[GateBenchmark]; !ok {
		t.Fatalf("suite lacks the gate benchmark %q", GateBenchmark)
	}
	if cycles := byName["engine/handoff/t2"].Op(); cycles == 0 {
		t.Fatal("engine benchmark reported zero simulated cycles")
	}
	if cycles := byName["fig5/kmeans-low/tl2/t4"].Op(); cycles == 0 {
		t.Fatal("cell benchmark reported zero simulated cycles")
	}
}
