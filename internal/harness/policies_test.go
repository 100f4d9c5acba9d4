package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cm"
	"repro/internal/stamp"
)

// TestPolicySweepDeterministicAndComplete: the policy ablation runs one
// cell per (workload, policy), is byte-deterministic across worker
// counts (each cell instantiates its own policy from the value-typed
// spec), and the rendered table names every policy with its decision
// counters.
func TestPolicySweepDeterministicAndComplete(t *testing.T) {
	opt := DefaultOptions()
	serial, err := Serial().PolicySweep(opt, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	want := len(Benchmarks(ScaleSmall)) * len(PolicySystems) * len(cm.Kinds)
	if len(serial) != want {
		t.Fatalf("rows = %d, want %d", len(serial), want)
	}
	parallel, err := Parallel(4).PolicySweep(opt, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Workload != parallel[i].Workload ||
			serial[i].System != parallel[i].System ||
			serial[i].Config != parallel[i].Config ||
			serial[i].Cycles != parallel[i].Cycles {
			t.Fatalf("row %d differs across worker counts:\nserial   %+v\nparallel %+v",
				i, serial[i], parallel[i])
		}
	}

	var sb strings.Builder
	PrintPolicySweep(&sb, serial)
	out := sb.String()
	for _, k := range cm.Kinds {
		if !strings.Contains(out, string(k)) {
			t.Fatalf("table missing policy %q:\n%s", k, out)
		}
	}
	if !strings.Contains(out, "delayCycles") || !strings.Contains(out, "starved") {
		t.Fatalf("table missing decision counters:\n%s", out)
	}

	// Every ablated system appears in the rendered tables.
	for _, sys := range PolicySystems {
		if !strings.Contains(out, "("+string(sys)+",") {
			t.Fatalf("table missing system %q:\n%s", sys, out)
		}
	}

	// The policies genuinely differ: for each system, at least one
	// workload must show a different backoff-cycle total between exp and
	// karma (otherwise the spec plumbing silently fell back to the
	// default policy).
	byKey := map[string]uint64{}
	for _, r := range serial {
		byKey[r.Workload+"/"+string(r.System)+"/"+r.Config] = r.Metrics.Counter("cm.delay_cycles")
	}
	for _, sys := range PolicySystems {
		differs := false
		for _, f := range Benchmarks(ScaleSmall) {
			if byKey[f.Name+"/"+string(sys)+"/exp"] != byKey[f.Name+"/"+string(sys)+"/karma"] {
				differs = true
			}
		}
		if !differs {
			t.Fatalf("%s: exp and karma produced identical delay cycles on every workload: policy spec not applied", sys)
		}
	}
}

// TestPrintPolicySweepFailedCell: a cell that panicked has no metrics
// snapshot. Its row prints as ERROR with the cell's error, the way
// PrintOLTP prints a failed point, and the rows after it print as usual.
func TestPrintPolicySweepFailedCell(t *testing.T) {
	boom := WorkloadFactory{Name: "boom", New: func() stamp.Workload { return panickyWorkload{} }}
	rows, err := Serial().runStudy("policies", []WorkloadFactory{boom, Benchmarks(ScaleSmall)[0]}, true, ScaleSmall,
		testOptions(), []studyConfig{{name: "exp", system: UFOHybrid}})
	if err == nil || len(rows) != 2 || rows[0].Metrics != nil || rows[1].Err != nil {
		t.Fatalf("err %v, %d rows: want the boom cell failed without metrics and the next one healthy", err, len(rows))
	}
	var sb strings.Builder
	PrintPolicySweep(&sb, rows)
	out := sb.String()
	for _, want := range []string{
		fmt.Sprintf("%-11s ERROR panic: kaboom\n", "exp"),
		fmt.Sprintf("%-11s %8.2f %10d", "exp", rows[1].Speedup(rows[1].SeqCycles), rows[1].Stats.HWRetries),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
