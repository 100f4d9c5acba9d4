package harness

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/cm"
	"repro/internal/stamp"
	"repro/internal/txstats"
)

// TestPolicySweepDeterministicAndComplete: the policy ablation runs one
// cell per (workload, policy), is byte-deterministic across worker
// counts (each cell builds its own cm.Manager), and the rendered table
// names every policy with its decision counters.
func TestPolicySweepDeterministicAndComplete(t *testing.T) {
	opt := DefaultOptions()
	serial, err := Parallel(1).PolicySweep(opt, ScaleSmall)
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
	// karma (otherwise the kind's plumbing silently fell back to the
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
			t.Fatalf("%s: exp and karma produced identical delay cycles on every workload: policy kind not applied", sys)
		}
	}
}

// TestPrintPolicySweepFailedCell: a cell that panicked keeps the partial
// metrics it measured until then, yet its row prints as ERROR with the
// cell's error, the way PrintOLTP prints a failed point, and the rows
// after it print as usual. Every other printer of per-cell counters does
// the same with a failed cell, rather than printing its partial counters
// or dropping it.
func TestPrintPolicySweepFailedCell(t *testing.T) {
	boom := WorkloadFactory{Name: "boom", New: func() stamp.Workload { return panickyWorkload{} }}
	rows, err := Parallel(1).runStudy("policies", []WorkloadFactory{boom, Benchmarks(ScaleSmall)[0]}, true, ScaleSmall,
		testOptions(), []studyConfig{{name: "exp", system: UFOHybrid}})
	if err == nil || len(rows) != 2 || rows[0].Err == nil || rows[0].Metrics == nil || rows[1].Err != nil {
		t.Fatalf("err %v, %d rows: want the boom cell failed with partial metrics and the next one healthy", err, len(rows))
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

	panicked := errors.New("panic: kaboom")
	row := Row{Study: "study", Config: "cfg", Result: Result{Workload: "boom", System: UFOHybrid, Err: panicked}}
	// A latency cell that panicked has no report; one that failed its
	// invariant has one, which must not be printed as if it were healthy.
	invariant := Result{Workload: "boom", System: UFOHybrid, Threads: 2, Err: errors.New("lost update"), TxStats: &txstats.Report{}}
	latency := []Figure5Data{{Workload: "boom", Cells: map[SystemKind]map[int]Result{
		UFOHybrid: {1: {Workload: "boom", System: UFOHybrid, Threads: 1, Err: panicked}, 2: invariant},
	}}}
	for _, c := range []struct {
		name  string
		print func(io.Writer)
		want  []string
	}{
		{"fig6", func(w io.Writer) { PrintFigure6(w, []Row{row}) },
			[]string{fmt.Sprintf("%-14s %-14s ERROR panic: kaboom\n", "boom", UFOHybrid)}},
		{"fig8", func(w io.Writer) { PrintFigure8(w, []Row{row}) },
			[]string{fmt.Sprintf("%-14s %-26s ERROR panic: kaboom\n", "boom", "cfg")}},
		{"ablations", func(w io.Writer) { PrintAblations(w, []Row{row}) },
			[]string{fmt.Sprintf("%-22s ERROR panic: kaboom\n", "cfg")}},
		{"footprints", func(w io.Writer) { PrintFootprints(w, []Row{row}) },
			[]string{fmt.Sprintf("%-14s ERROR panic: kaboom\n", "boom")}},
		{"latency", func(w io.Writer) { PrintLatency(w, latency, ScaleSmall) }, []string{
			fmt.Sprintf("%-14s %5d ERROR panic: kaboom\n", UFOHybrid, 1),
			fmt.Sprintf("%-14s %5d ERROR lost update\n", UFOHybrid, 2),
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			c.print(&sb)
			for _, want := range c.want {
				if !strings.Contains(sb.String(), want) {
					t.Errorf("table missing %q:\n%s", want, sb.String())
				}
			}
		})
	}
}
