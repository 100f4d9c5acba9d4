package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/contention"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/stamp"
	"repro/internal/tm"
	"repro/internal/txstats"
)

// tmsim runs the command in-process at -scale small and fails the test
// unless it exits 0 with nothing on stderr; it returns stdout.
func tmsim(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-scale", "small"}, args...), &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("tmsim %v: exit %d, stderr:\n%s", args, code, stderr.String())
	}
	return stdout.String()
}

// decodeFile decodes a written JSON file into v with encoding/json, the
// way any consumer of the documented schemas would.
func decodeFile(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// sectionDoc is one report section's document (OBSERVABILITY.md): the
// schema string, the cells with their identity and the one section each
// carries, and the section's aggregate.
type sectionDoc struct {
	Schema string
	Cells  []struct {
		Workload, System, Err string
		Threads               int
		Metrics               *struct {
			Metrics []struct {
				Name  string
				Value float64
			}
		}
		TxStats    *txstats.Report
		Contention *contention.Report
	}
	Aggregate json.RawMessage
}

// readSection decodes a report file and checks that it is section s's.
func readSection(t *testing.T, path string, s harness.Section) *sectionDoc {
	t.Helper()
	var doc sectionDoc
	decodeFile(t, path, &doc)
	if doc.Schema != string(s) {
		t.Fatalf("%s: schema %q, want %q", path, doc.Schema, s)
	}
	return &doc
}

// label renders cell i's coordinates as harness.Cell.Label does.
func (d *sectionDoc) label(i int) string {
	c := d.Cells[i]
	return fmt.Sprintf("%s/%s/%d threads", c.Workload, c.System, c.Threads)
}

// counter is cell i's value of the named metric, 0 when absent.
func (d *sectionDoc) counter(i int, name string) uint64 {
	for _, m := range d.Cells[i].Metrics.Metrics {
		if m.Name == name {
			return uint64(m.Value)
		}
	}
	return 0
}

// TestLatencyTxStatsFile: -experiment latency -txstats-out writes a
// tmsim-txstats/v1 document, one cell per sweep cell, where every cell
// with nothing in flight decomposes its latency exactly — the five cycle
// buckets sum to the latency histogram's total — and the aggregate's
// percentiles are positive and monotone.
func TestLatencyTxStatsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lat.json")
	out := tmsim(t, "-experiment", "latency", "-txstats-out", path)
	rep := readSection(t, path, harness.SectionTxStats)
	want := len(harness.Benchmarks(harness.ScaleSmall)) * (1 + len(harness.Figure5Systems)*len(harness.ThreadCounts(harness.ScaleSmall)))
	if len(rep.Cells) != want || !strings.Contains(out, fmt.Sprintf("txstats report for %d cells written to", want)) {
		t.Fatalf("%d cells, want %d; stdout:\n%s", len(rep.Cells), want, out)
	}
	checked := 0
	for i, c := range rep.Cells {
		ts := c.TxStats
		if c.Err != "" || ts == nil {
			t.Fatalf("%s: err %q, txstats %v", rep.label(i), c.Err, ts)
		}
		if ts.InFlight != 0 || ts.Latency == nil {
			continue
		}
		split := ts.UsefulCycles + ts.WastedCycles + ts.BackoffCycles + ts.RetryWaitCycles + ts.OverheadCycles
		if split != ts.Latency.Sum {
			t.Errorf("%s: cycle split %d != total latency %d", rep.label(i), split, ts.Latency.Sum)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no cell had a latency histogram to check the identity on")
	}
	var agg txstats.Report
	if err := json.Unmarshal(rep.Aggregate, &agg); err != nil {
		t.Fatal(err)
	}
	pc := agg.LatencyPercentiles
	if agg.Committed == 0 || pc == nil || !(0 < pc.P50 && pc.P50 <= pc.P90 && pc.P90 <= pc.P99 && pc.P99 <= pc.P999) {
		t.Fatalf("aggregate committed %d, percentiles %+v", agg.Committed, pc)
	}
}

// TestFig6ContentionFiles: -contention-out under fig6 writes the
// tmsim-contention-report/v1 document (one cell per sweep cell) and, with -report html,
// a document that is HTML and not JSON (contention's
// TestWriteHTMLSelfContained checks what is inside it).
func TestFig6ContentionFiles(t *testing.T) {
	dir := t.TempDir()
	jsonPath, htmlPath := filepath.Join(dir, "c.json"), filepath.Join(dir, "c.html")
	tmsim(t, "-experiment", "fig6", "-contention-out", jsonPath)
	rep := readSection(t, jsonPath, harness.SectionContention)
	if len(rep.Cells) == 0 {
		t.Fatal("no contention cells")
	}
	for i, c := range rep.Cells {
		if c.Contention == nil || c.Metrics != nil || c.TxStats != nil {
			t.Fatalf("%s: contention %v, metrics %v, txstats %v", rep.label(i), c.Contention, c.Metrics, c.TxStats)
		}
	}
	out := tmsim(t, "-experiment", "fig6", "-contention-out", htmlPath, "-report", "html")
	html, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(html, []byte("<!DOCTYPE html>")) || !strings.Contains(out, fmt.Sprintf("contention report (html) for %d cells", len(rep.Cells))) {
		t.Fatalf("html report starts %q; stdout:\n%s", html[:min(len(html), 40)], out)
	}
}

// TestOLTPFile: -experiment oltp -oltp-out writes a tmsim-oltp/v1
// document, with no failed point and positive response percentiles
// (harness's TestOLTPReportSane checks the rest of the service invariants
// on the same sweep).
func TestOLTPFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "oltp.json")
	tmsim(t, "-experiment", "oltp", "-oltp-out", path)
	var rep harness.OLTPReport
	decodeFile(t, path, &rep)
	if rep.Schema != harness.OLTPSchemaVersion {
		t.Fatalf("schema %q, want %q", rep.Schema, harness.OLTPSchemaVersion)
	}
	if len(rep.Points) == 0 || len(rep.Knees) != len(harness.OLTPSystems) {
		t.Fatalf("%d points, %d knees", len(rep.Points), len(rep.Knees))
	}
	for _, pt := range rep.Points {
		if pt.Err != "" || pt.Response == nil || pt.Response.P50 <= 0 {
			t.Errorf("%s %s gap=%d: err %q, response %+v", pt.System, pt.Axis, pt.MeanGap, pt.Err, pt.Response)
		}
	}
}

// TestLitmusProgress: -progress reaches the litmus sweep through the
// runner — its last report on stderr counts every (program, system) cell
// — and leaves stdout as a run without it prints it.
func TestLitmusProgress(t *testing.T) {
	plain := tmsim(t, "-experiment", "litmus")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "small", "-experiment", "litmus", "-progress"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var programs, systems, done, total int
	if _, err := fmt.Sscanf(plain, "litmus sweep: %d programs x %d systems", &programs, &systems); err != nil {
		t.Fatalf("stdout does not open with the sweep's size: %v\n%s", err, plain)
	}
	reports := strings.Split(stderr.String(), "\r")
	last := strings.TrimSpace(reports[len(reports)-1])
	if _, err := fmt.Sscanf(last, "[%d/%d cells", &done, &total); err != nil || done != total || total != programs*systems {
		t.Fatalf("last progress report %q (%v); want Done == Total == %d programs × %d systems", last, err, programs, systems)
	}
	wall := func(s string) string { return s[:strings.Index(s, "  [litmus completed in")] }
	if wall(stdout.String()) != wall(plain) {
		t.Fatalf("-progress changed stdout:\n%s\nwant:\n%s", stdout.String(), plain)
	}
}

// TestTracedCellAllReports: one traced cell with all three report flags
// writes a loadable Chrome trace and three documents that each hold the
// same single cell with its own section alone.
func TestTracedCellAllReports(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	out := tmsim(t, "-trace-out", p("t.json"), "-trace-format", "chrome", "-trace-workload", "kmeans-high",
		"-trace-threads", "2", "-metrics-out", p("m.json"), "-txstats-out", p("x.json"), "-contention-out", p("c.json"))
	raw, err := os.ReadFile(p("t.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Fatalf("chrome trace: %d events, err %v", len(trace.TraceEvents), err)
	}
	m := readSection(t, p("m.json"), harness.SectionMetrics)
	x := readSection(t, p("x.json"), harness.SectionTxStats)
	c := readSection(t, p("c.json"), harness.SectionContention)
	for _, rep := range []*sectionDoc{m, x, c} {
		if len(rep.Cells) != 1 || rep.label(0) != "kmeans-high/ufo-hybrid/2 threads" {
			t.Fatalf("cells = %+v", rep.Cells)
		}
	}
	if m.Cells[0].Metrics == nil || x.Cells[0].TxStats == nil || c.Cells[0].Contention == nil {
		t.Fatal("a document lacks its own section")
	}
	// The recorder's totals are also registered as metrics: the three
	// documents describe one run.
	if got := m.counter(0, "txstats.committed"); got == 0 || got != x.Cells[0].TxStats.Committed {
		t.Fatalf("txstats.committed metric %d, report %d", got, x.Cells[0].TxStats.Committed)
	}
	if got := m.counter(0, "contention.edges"); got != c.Cells[0].Contention.Edges {
		t.Fatalf("contention.edges metric %d, report %d", got, c.Cells[0].Contention.Edges)
	}
	// A traced run is one cell: its messages do not count cells.
	if !strings.Contains(out, "[metrics written to ") || strings.Contains(out, " cells ") {
		t.Fatalf("stdout:\n%s", out)
	}
}

// failing is a workload whose invariant check always fails.
type failing struct{ stamp.Workload }

func (failing) Validate(*machine.Machine) error { return errors.New("broken on purpose") }

// tracedWith parses a traced kmeans-low/ufo-hybrid/2 cell at -scale
// small, swaps its workload for wrap's, and runs the command.
func tracedWith(t *testing.T, wrap func(stamp.Workload) stamp.Workload, path, format string) (code int, stdout, stderr string) {
	t.Helper()
	cfg, err := parseConfig([]string{"-scale", "small", "-trace-out", path, "-trace-format", format,
		"-trace-workload", "kmeans-low", "-trace-threads", "2"}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	good := cfg.workload.New
	cfg.workload.New = func() stamp.Workload { return wrap(good()) }
	var out, errOut bytes.Buffer
	code = runConfig(cfg, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestFailedTracedCellKeepsItsTrace: a traced cell whose workload
// invariant fails still leaves the whole trace — the one artifact that
// would explain the failure — and then reports the error, on one line.
func TestFailedTracedCellKeepsItsTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.txt")
	code, stdout, stderr := tracedWith(t, func(w stamp.Workload) stamp.Workload { return failing{w} }, path, "text")
	if code != 1 || stderr != "tmsim: kmeans-low on ufo-hybrid with 2 threads: broken on purpose\n" {
		t.Fatalf("exit %d, stderr %q; want 1 and the cell's coordinates with the invariant failure", code, stderr)
	}
	if st, serr := os.Stat(path); serr != nil || st.Size() == 0 {
		t.Fatalf("trace file: %v, %v", st, serr)
	}
	if !strings.Contains(stdout, "trace events (text) written to "+path) {
		t.Fatalf("stdout does not say where the trace went:\n%s", stdout)
	}
}

// dying is a workload whose thread 1 panics at its 20th transaction,
// with thread 0 in the middle of its own work.
type dying struct{ stamp.Workload }

type dyingExec struct {
	tm.Exec
	left int
}

func (e *dyingExec) Atomic(body func(tm.Tx)) {
	if e.left--; e.left < 0 {
		panic("died on purpose")
	}
	e.Exec.Atomic(body)
}

func (d dying) Thread(i int, ex tm.Exec) {
	if i == 1 {
		ex = &dyingExec{Exec: ex, left: 19}
	}
	d.Workload.Thread(i, ex)
}

// TestPanickedTracedCellLeavesItsTrace: a traced cell that dies mid-run
// is a failed cell, not a dead process — exit status 1, one "tmsim:"
// line naming (workload, system, threads), no goroutine dump — and its
// trace file is closed, parses in its own format, and holds every event
// the machine emitted before the panic: as many as stdout says were
// written, and (text, jsonl) a proper prefix of the healthy cell's trace.
func TestPanickedTracedCellLeavesItsTrace(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"text", "jsonl", "chrome"} {
		whole, part := filepath.Join(dir, "whole."+format), filepath.Join(dir, "part."+format)
		if code, _, stderr := tracedWith(t, func(w stamp.Workload) stamp.Workload { return w }, whole, format); code != 0 {
			t.Fatalf("%s: healthy cell: exit %d, stderr %q", format, code, stderr)
		}
		code, stdout, stderr := tracedWith(t, func(w stamp.Workload) stamp.Workload { return dying{w} }, part, format)
		if code != 1 || stderr != "tmsim: kmeans-low on ufo-hybrid with 2 threads: panic: died on purpose\n" {
			t.Fatalf("%s: exit %d, stderr %q; want 1 and one line naming the cell", format, code, stderr)
		}
		var written int
		if _, err := fmt.Sscanf(stdout[strings.Index(stdout, " cycles, ")+1:], "cycles, %d trace events", &written); err != nil || written == 0 {
			t.Fatalf("%s: stdout does not count the events written: %q (%v)", format, stdout, err)
		}
		healthy, err := os.ReadFile(whole)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(part)
		if err != nil {
			t.Fatal(err)
		}
		if format == "chrome" {
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(got, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Fatalf("chrome trace of the dead cell: %d events, err %v", len(doc.TraceEvents), err)
			}
			continue
		}
		lines := strings.SplitAfter(string(got), "\n")
		if lines[len(lines)-1] != "" || len(lines)-1 != written {
			t.Fatalf("%s: %d whole lines (rest %q), stdout says %d events", format, len(lines)-1, lines[len(lines)-1], written)
		}
		if format == "jsonl" {
			for _, line := range lines[:written] {
				if !json.Valid([]byte(line)) {
					t.Fatalf("jsonl line does not parse: %q", line)
				}
			}
		}
		if len(got) >= len(healthy) || !bytes.HasPrefix(healthy, got) {
			t.Fatalf("%s: the dead cell's %d bytes are not a proper prefix of the healthy cell's %d", format, len(got), len(healthy))
		}
	}
}

// TestRunExitStatus: usage errors exit 2 before anything runs (the two
// flags that used to be silently ignored among them), a run that cannot
// write its output exits 1, and both name the problem on stderr.
func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-experiment", "fig6", "-csv", filepath.Join(dir, "x.csv")}, 2, "-csv requires -experiment fig5"},
		{[]string{"-experiment", "fig5", "-seeds", "2", "-csv", filepath.Join(dir, "y.csv")}, 2, "-csv cannot be combined with -seeds 2"},
		{[]string{"-trace-out", filepath.Join(dir, "t.txt"), "-trace-threads", "300"}, 2, "-trace-threads 300: want 1..256"},
		{[]string{"-trace-out", filepath.Join(dir, "t.txt"), "-trace-limit", "40"}, 2, "flag provided but not defined: -trace-limit"},
		{[]string{"-trace-out", filepath.Join(dir, "t.txt"), "-trace-system", "sequential"}, 2, "pass -trace-threads 1"},
		{[]string{"-experiment", "params", "-metrics-out", filepath.Join(dir, "no-such-dir", "m.json")}, 1, "no-such-dir"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code || !strings.Contains(stderr.String(), "tmsim: ") ||
			!strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("tmsim %v: exit %d, want %d; stderr %q, want %q in it", c.args, code, c.code, stderr.String(), c.stderr)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("rejected invocations left files behind: %v", entries)
	}
}
