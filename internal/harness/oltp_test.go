package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/contention"
	"repro/internal/oltp"
)

// oltpSmallReport runs the small sweep once with the test footprint.
func oltpSmallReport(t *testing.T, r *Runner) (*OLTPReport, []byte) {
	t.Helper()
	rep, err := r.OLTP(testOptions(), ScaleSmall, DefaultOLTPSweep())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return rep, buf.Bytes()
}

// TestOLTPReportBitIdentical is the acceptance pin for the service sweep:
// the encoded tmsim-oltp/v1 report must be byte-identical across sweep
// worker counts and across the engine schedulers — the same contract the
// Figure 5 and scale sweeps carry.
func TestOLTPReportBitIdentical(t *testing.T) {
	_, ref := oltpSmallReport(t, Parallel(1))

	if _, got := oltpSmallReport(t, Parallel(8)); !bytes.Equal(ref, got) {
		t.Error("report differs between -parallel 1 and -parallel 8 sweeps")
	}
	opt := testOptions()
	opt.Params.ReferenceScheduler = true
	rep, err := Parallel(4).OLTP(opt, ScaleSmall, DefaultOLTPSweep())
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, buf.Bytes()) {
		t.Error("report differs under the reference scheduler")
	}
}

// TestOLTPReportSane checks the service-level invariants the CI smoke job
// also enforces: every point committed its full trace, goodput never
// exceeds the offered load, response percentiles are monotone, and every
// system gets a knee row.
func TestOLTPReportSane(t *testing.T) {
	rep, _ := oltpSmallReport(t, Parallel(4))
	if rep.Schema != OLTPSchemaVersion {
		t.Fatalf("schema %q, want %q", rep.Schema, OLTPSchemaVersion)
	}
	if want := len(OLTPSystems) * (len(OLTPLoadGaps(ScaleSmall)) + len(OLTPSkewThetas(ScaleSmall)) + len(OLTPMixes(ScaleSmall))); len(rep.Points) != want {
		t.Fatalf("%d points, want %d", len(rep.Points), want)
	}
	for _, pt := range rep.Points {
		if pt.Err != "" {
			t.Errorf("%s %s: %s", pt.System, pt.Axis, pt.Err)
			continue
		}
		if pt.Committed != pt.Requests {
			t.Errorf("%s %s gap=%d: committed %d of %d requests", pt.System, pt.Axis, pt.MeanGap, pt.Committed, pt.Requests)
		}
		if pt.Goodput > pt.Offered*(1+1e-9) {
			t.Errorf("%s %s gap=%d: goodput %.4f exceeds offered %.4f", pt.System, pt.Axis, pt.MeanGap, pt.Goodput, pt.Offered)
		}
		pc := pt.Response
		if pc == nil {
			t.Errorf("%s %s: no response percentiles", pt.System, pt.Axis)
			continue
		}
		if !(pc.P50 <= pc.P90 && pc.P90 <= pc.P99 && pc.P99 <= pc.P999) {
			t.Errorf("%s %s: percentiles not monotone: %.0f %.0f %.0f %.0f",
				pt.System, pt.Axis, pc.P50, pc.P90, pc.P99, pc.P999)
		}
	}
	if len(rep.Knees) != len(OLTPSystems) {
		t.Fatalf("%d knee rows, want %d", len(rep.Knees), len(OLTPSystems))
	}
	for i, k := range rep.Knees {
		if k.System != OLTPSystems[i] {
			t.Errorf("knee %d is %s, want %s", i, k.System, OLTPSystems[i])
		}
	}
}

// TestOLTPReportRoundTrip: the written report decodes with encoding/json
// into an OLTPReport that writes back the same bytes.
func TestOLTPReportRoundTrip(t *testing.T) {
	rep, raw := oltpSmallReport(t, Parallel(1))
	got := new(OLTPReport)
	if err := json.Unmarshal(raw, got); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := got.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again.Bytes()) {
		t.Error("round-tripped report re-encodes differently")
	}
	if got.Schema != OLTPSchemaVersion || got.Seed != rep.Seed || len(got.Points) != len(rep.Points) {
		t.Error("round-tripped report lost fields")
	}
}

// TestOLTPProfilesContentionOnlyWhenAsked: an observer runs only when its
// output is requested. The sweep's own report is built from txstats, so
// without Options.Contention no cell carries a profile or writes a
// contention.* metric; with it, every cell's report has the package's
// fixed window and top-K cut.
func TestOLTPProfilesContentionOnlyWhenAsked(t *testing.T) {
	sweep := func(on bool) []Cell {
		var rep Report
		r := Parallel(4)
		r.Collect = rep.Collector()
		opt := testOptions()
		opt.Contention = on
		if _, err := r.OLTP(opt, ScaleSmall, DefaultOLTPSweep()); err != nil {
			t.Fatal(err)
		}
		return rep.Cells
	}
	for _, c := range sweep(false) {
		if c.Contention != nil {
			t.Fatalf("%s: a contention report nobody asked for", c.Label())
		}
		for _, m := range c.Metrics.Metrics {
			if strings.HasPrefix(m.Name, "contention.") {
				t.Fatalf("%s: metric %s written without Options.Contention", c.Label(), m.Name)
			}
		}
	}
	for _, c := range sweep(true) {
		p := c.Contention
		if p == nil {
			t.Fatalf("%s: no contention report with Options.Contention", c.Label())
		}
		if p.WindowCycles != contention.WindowCycles || len(p.HotLines) > contention.TopK {
			t.Fatalf("%s: window %d, %d hot lines", c.Label(), p.WindowCycles, len(p.HotLines))
		}
		if c.Metrics.Get("contention.edges") == nil {
			t.Fatalf("%s: no contention.edges metric", c.Label())
		}
	}
}

// TestOLTPHotKeyCollider pins conflict attribution for the service
// workload: two serving processors hammering a single-key store with pure
// RMW traffic must produce conflict edges, and the hottest line must be
// the one holding that key's record.
func TestOLTPHotKeyCollider(t *testing.T) {
	cfg := oltp.Config{
		Keys: 1, RequestsPerProc: 60, Theta: 0,
		ReadPct: 0, RMWPct: 100, ScanPct: 0,
		ScanLen: 1, MeanGap: 40, Arrival: oltp.ArrivalPoisson, Seed: 17,
	}
	w := oltp.New(cfg)
	opt := testOptions()
	opt.TxStats = true
	opt.Contention = true
	res := Run(USTM, w, 2, opt)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	prof := res.Contention
	if prof == nil || prof.Edges == 0 {
		t.Fatal("hot-key collider produced no conflict edges")
	}
	if len(prof.HotLines) == 0 {
		t.Fatal("no hot lines attributed")
	}
	if hot, want := prof.HotLines[0].Addr, w.RecordAddr(1); hot != want {
		t.Errorf("hottest line %#x, want the key-1 record line %#x", hot, want)
	}
	top := prof.HotLines[0]
	if len(top.Aggressors) == 0 || len(top.Victims) == 0 {
		t.Error("hot line missing aggressor/victim attribution")
	}
}

// TestOLTPPrintStable: rendering is a pure function of the report.
func TestOLTPPrintStable(t *testing.T) {
	rep, _ := oltpSmallReport(t, Parallel(1))
	var a, b bytes.Buffer
	PrintOLTP(&a, rep)
	PrintOLTP(&b, rep)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("PrintOLTP is not deterministic")
	}
	for _, want := range []string{"offered load", "Zipfian skew", "request mix", "saturation knees"} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("rendered sweep missing %q section", want)
		}
	}
}

// TestOLTPHaltedPoints: a sweep whose every cell runs out of steps
// mid-trace is a report of failed points, each with its error, no
// commits and no rates, printed as ERROR rows and kept out of the knees.
func TestOLTPHaltedPoints(t *testing.T) {
	opt := testOptions()
	opt.Params.MaxSteps = 100
	rep, err := Parallel(0).OLTP(opt, ScaleSmall, DefaultOLTPSweep())
	if err == nil {
		t.Fatal("no cell halted")
	}
	for _, pt := range rep.Points {
		if !strings.Contains(pt.Err, "step budget exhausted") || pt.Committed != 0 || pt.Goodput != 0 || pt.Utilization != 0 ||
			pt.Response != nil || pt.QueueWaitP99 != 0 || pt.WastedShare != 0 {
			t.Fatalf("halted point %+v: want its error and no rates", pt)
		}
	}
	for _, k := range rep.Knees {
		if k.Detected || k.Offered != 0 {
			t.Errorf("knee %+v from halted points", k)
		}
	}
	var sb strings.Builder
	PrintOLTP(&sb, rep)
	pt := rep.Points[0]
	if want := fmt.Sprintf("%-14s %-10d ERROR sim: step budget exhausted", pt.System, pt.MeanGap); !strings.Contains(sb.String(), want) {
		t.Errorf("table missing %q:\n%s", want, sb.String())
	}
}

// TestFindWorkloadOLTP: the service workload is addressable like any
// STAMP benchmark, for -trace-workload and the perf suite.
func TestFindWorkloadOLTP(t *testing.T) {
	f, ok := FindWorkload("oltp", ScaleSmall)
	if !ok || f.Name != "oltp" {
		t.Fatal("FindWorkload does not surface oltp")
	}
	if got := f.New().Name(); got != "oltp" {
		t.Fatalf("factory builds workload %q", got)
	}
}

// TestOLTPUSTMDrainDeadlock is the smallest sweep cell ustm's drain loop
// deadlocked on (ustm's TestUpgraderRekillsARejoinedReader is the shape):
// the full-scale sweep's skew cell at θ = 1.3 and 8 processors, shrunk
// to 256 keys and 8-record scans, with 320 requests each. The cell takes
// ~88,000 scheduling steps; the budget is a few times that, and a
// polling deadlock spends any budget.
func TestOLTPUSTMDrainDeadlock(t *testing.T) {
	cfg := oltpBase(ScaleFull, DefaultOLTPSweep())
	cfg.Keys, cfg.RequestsPerProc, cfg.ScanLen, cfg.Theta = 256, 320, 8, 1.3
	opt := DefaultOptions() // the sweep's otable, which the shape needs
	opt.Params.MaxSteps = 400_000
	if res := Run(USTM, oltp.New(cfg), 8, opt); res.Err != nil {
		t.Fatal(res.Err)
	}
}
