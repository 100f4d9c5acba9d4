package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// TestMain lets the test binary stand in for the benchmark binary when
// coldSetup re-executes it for setup_s.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-cold" {
		if err := run(os.Args[1:], io.Discard); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 17.5}, {0.5, 25}, {0.75, 32.5}, {1, 40}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("quantile sorted its argument in place")
	}
	if got := spread(xs); !near(got, 15.0/25) {
		t.Errorf("spread = %g, want 0.6", got)
	}
	if quantile(nil, 0.5) != 0 || spread(nil) != 0 {
		t.Error("empty input must read 0")
	}
}

// fakeClock drives an iteration with synthetic time: work advances the
// clock, and each calibration takes the next scripted duration.
type fakeClock struct {
	t      time.Time
	calibs []time.Duration
}

func (c *fakeClock) now() time.Time       { return c.t }
func (c *fakeClock) work(d time.Duration) { c.t = c.t.Add(d) }
func (c *fakeClock) calibrate() time.Duration {
	d := c.calibs[0]
	c.calibs = c.calibs[1:]
	c.t = c.t.Add(d)
	return d
}

func TestIterationCostsAcrossExecutes(t *testing.T) {
	const ms = time.Millisecond
	clk := &fakeClock{t: time.Unix(1000, 0), calibs: []time.Duration{40 * ms, 80 * ms, 60 * ms}}
	it := &iteration{now: clk.now, calibrate: clk.calibrate}

	it.runCalib() // 40 ms: the host is fast
	it.startOp()
	clk.work(100 * ms)
	it.progress(harness.Progress{Done: 1, Total: 2, Elapsed: 100 * ms})
	// 200 ms more work passes the 250 ms threshold, so this callback
	// calibrates (80 ms: the host slowed down) before returning.
	clk.work(200 * ms)
	it.progress(harness.Progress{Done: 2, Total: 2, Elapsed: 300 * ms})
	if len(it.cals) != 2 {
		t.Fatalf("want a calibration inside the second callback, have %d calibrations", len(it.cals))
	}
	// A second Execute inside the same op: 5 ms of assembly the harness
	// does between sweeps, then Elapsed restarts from zero.
	clk.work(5 * ms)
	clk.work(50 * ms)
	it.progress(harness.Progress{Done: 1, Total: 2, Elapsed: 50 * ms})
	clk.work(30 * ms)
	it.progress(harness.Progress{Done: 2, Total: 2, Elapsed: 80 * ms})
	it.stopOp()
	it.runCalib() // 60 ms

	wantWall := []time.Duration{100 * ms, 200 * ms, 50 * ms, 30 * ms}
	for i, w := range wantWall {
		if got := it.cells[i].dur(); got != w {
			t.Errorf("cell %d lasted %v, want %v (a calibration or the gap between sweeps was charged to it)", i, got, w)
		}
	}
	// Cells 0 and 1 sit between the 40 and 80 ms kernels, 2 and 3 between
	// the 80 and 60 ms ones.
	want := []float64{100.0 / 60, 200.0 / 60, 50.0 / 70, 30.0 / 70}
	for i, c := range it.costs() {
		if !near(c, want[i]) {
			t.Errorf("cell %d costs %g calib-units, want %g", i, c, want[i])
		}
	}
	if len(it.execs) != 2 || it.execs[0].dur() != 300*ms || it.execs[1].dur() != 80*ms {
		t.Errorf("sweep-call spans = %v", it.execs)
	}
	if got := it.op.dur() - it.innerCalib(); got != 385*ms {
		t.Errorf("raw op time = %v, want 385ms (the inner calibration removed)", got)
	}
}

func TestLedgerHostCostIsSumOfCellMedians(t *testing.T) {
	var l ledger
	l.names = []string{"a", "b"}
	l.costs = [][]float64{{1, 9, 2}, {5, 4, 30}} // medians 2 and 5, whatever the iteration
	if got := l.hostCost(); !near(got, 7) {
		t.Errorf("hostCost = %g, want 7", got)
	}
	if name, cost := l.critical(); name != "b" || !near(cost, 5) {
		t.Errorf("critical = %s %g, want b 5", name, cost)
	}
}

func TestDeterminismCheckFiresOnPerturbedCycles(t *testing.T) {
	cells := func(cycles uint64) []cellInfo {
		return []cellInfo{{name: "000/kmeans/tl2/t2", cycles: 100}, {name: "001/kmeans/hytm/t2", cycles: cycles}}
	}
	var p pass
	p.check(cells(200), simSummary{}, nil)
	p.check(cells(200), simSummary{}, nil)
	if p.failed != 0 || p.attempted != 4 {
		t.Fatalf("identical iterations: failed=%d attempted=%d", p.failed, p.attempted)
	}
	p.check(cells(201), simSummary{}, nil)
	if p.failed != 1 {
		t.Errorf("a cell whose cycles differ between iterations must fail: failed=%d", p.failed)
	}
	p.check(cells(200)[:1], simSummary{}, nil)
	if p.failed != 2 {
		t.Errorf("a missing cell must fail: failed=%d", p.failed)
	}
	bad := cells(200)
	bad[0].err = errors.New("validate: seats oversold")
	p.check(bad, simSummary{}, &harness.SweepError{Total: 2, Cells: []harness.CellError{{Err: bad[0].err}}})
	if p.failed != 3 {
		t.Errorf("a failing cell must count once, not again for its SweepError: failed=%d", p.failed)
	}
	p.check(cells(200), simSummary{}, errors.New("report assembly failed"))
	if p.failed != 4 {
		t.Errorf("an op error with no failing cell must count: failed=%d", p.failed)
	}
}

// Minimal profile.proto writer for the decoder test.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}
func (p *protoBuf) bytes(field int, data []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}
func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// tinyProfile encodes stacks (innermost first) with weights. Each
// function gets its own location, except that inlined[callee] = caller
// folds the pair into one location with two lines, as the compiler's
// inlining does.
func tinyProfile(t *testing.T, stacks [][]string, weights []uint64, inlined map[string]string) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var prof protoBuf
	for _, st := range []string{"samples", "cpu"} { // sample_type: count, then cpu nanoseconds
		var vt protoBuf
		vt.varint(1, intern(st))
		prof.bytes(1, vt.b)
	}
	funcID := map[string]uint64{}
	fn := func(name string) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		id := uint64(len(funcID) + 1)
		funcID[name] = id
		var f protoBuf
		f.varint(1, id)
		f.varint(2, intern(name))
		prof.bytes(5, f.b)
		return id
	}
	locID := map[string]uint64{}
	loc := func(name string) uint64 {
		if id, ok := locID[name]; ok {
			return id
		}
		id := uint64(len(locID) + 1)
		locID[name] = id
		var l protoBuf
		l.varint(1, id)
		for _, n := range []string{name, inlined[name]} {
			if n == "" {
				continue
			}
			var line protoBuf
			line.varint(1, fn(n))
			l.bytes(4, line.b)
		}
		prof.bytes(4, l.b)
		return id
	}
	for i, stack := range stacks {
		var ids []uint64
		for j, name := range stack {
			if j > 0 && inlined[stack[j-1]] == name {
				continue // already a line of the previous location
			}
			ids = append(ids, loc(name))
		}
		var s protoBuf
		if i%2 == 0 { // both encodings of a repeated integer field
			s.bytes(1, packed(ids...))
			s.bytes(2, packed(1, weights[i]))
		} else {
			for _, id := range ids {
				s.varint(1, id)
			}
			s.varint(2, 1)
			s.varint(2, weights[i])
		}
		prof.bytes(2, s.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestProfileDecodeAndLayerAttribution(t *testing.T) {
	stacks := [][]string{
		// Allocation under the otable build: charged to ustm, the innermost repo frame.
		{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/ustm.newOTable", "repro/internal/harness.Build", "repro/internal/harness.Run"},
		// mem.Read64 inlined into machine.(*Proc).TxRead: one location, two lines; mem is innermost.
		{"repro/internal/mem.(*Memory).Read64", "repro/internal/machine.(*Proc).TxRead", "repro/internal/stamp.(*Vacation).Thread"},
		// obs is not a listed layer: the nearest listed caller, harness, pays.
		{"runtime.mapassign", "repro/internal/obs.(*Registry).Counter", "repro/internal/harness.Run"},
		// The collector's own worker, the scheduler on a system stack, and a
		// stack with nothing of ours.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.futex", "runtime.schedule", "runtime.mcall"},
		{"runtime.nanotime1", "main.opLayerMicro"},
		// The calibration kernel is the benchmark's, not the simulator's: dropped.
		{"crypto/sha256.block", "main.calibKernel", "main.(*iteration).runCalib"},
	}
	weights := []uint64{30, 20, 10, 20, 15, 5, 1000}
	inlined := map[string]string{"repro/internal/mem.(*Memory).Read64": "repro/internal/machine.(*Proc).TxRead"}
	prof, err := decodeProfile(tinyProfile(t, stacks, weights, inlined))
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(prof.samples), len(stacks))
	}
	for i, s := range prof.samples {
		if strings.Join(s.stack, " ") != strings.Join(stacks[i], " ") || s.value != int64(weights[i]) {
			t.Errorf("sample %d = %v x%d, want %v x%d", i, s.stack, s.value, stacks[i], weights[i])
		}
	}
	shares := layerShares(prof)
	want := map[string]float64{"ustm": 0.30, "mem": 0.20, "harness": 0.10, layerGC: 0.20, layerSched: 0.15, layerOther: 0.05}
	total := 0.0
	for l, s := range shares {
		total += s
		if !near(s, want[l]) {
			t.Errorf("%s share = %g, want %g", l, s, want[l])
		}
	}
	if !near(total, 1) {
		t.Errorf("shares sum to %g, want 1", total)
	}
	if len(shares) != len(allBuckets()) {
		t.Errorf("%d buckets, want every layer plus the fallback buckets (%d)", len(shares), len(allBuckets()))
	}

	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("decodeProfile accepted garbage")
	}
}

// A profile written by runtime/pprof itself must decode: the hand-made
// one above shares the test author's reading of profile.proto.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	calibKernel()
	pprof.StopCPUProfile()
	prof, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range prof.samples {
		if len(s.stack) == 0 || s.value <= 0 {
			t.Fatalf("sample without a stack or a weight: %+v", s)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMeetsContract holds BENCHMARK.json to the driver's limits
// and to the tables the program emits metrics from.
func TestManifestMeetsContract(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(committed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(committed))
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(m.Workloads))
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(m.EndToEnd))
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(m.PerLayer))
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	direction := func(n, better string) {
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	maxBound, setupBound := 0.0, -1.0
	for _, e := range m.EndToEnd {
		name("end-to-end", e.Name)
		direction(e.Name, e.Better)
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q", e.Name, e.Unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", e.Name, e.Bound)
		}
		maxBound = math.Max(maxBound, e.Bound)
		if e.Name == "setup_s" {
			setupBound = e.Bound
			if e.Unit != "s" || e.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g must be the largest (%g)", setupBound, maxBound)
	}
	for _, l := range m.PerLayer {
		name("per-layer", l.Name)
		direction(l.Name, l.Better)
		if !unitRE.MatchString(l.Unit) {
			t.Errorf("%s: unit %q", l.Name, l.Unit)
		}
	}
}

// TestFig5SmallEmitsEveryDeclaredMetric runs one iteration of fig5-small
// in process, both passes, and checks the emitted metrics against the
// declaration in both directions.
func TestFig5SmallEmitsEveryDeclaredMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Figure 5 sweep several times")
	}
	w, _ := findWorkload("fig5-small")
	out := t.TempDir()
	res, err := measureAll(config{workloads: []workload{w}, seed: 1, untraced: true, traced: true, quick: true, out: out})
	if err != nil {
		t.Fatal(err)
	}
	wl := res.Workloads[0]
	if !wl.correct() || wl.Attempted != 250 {
		t.Errorf("correct=%v attempted=%d failures=%v; want two clean passes of 125 cells", wl.correct(), wl.Attempted, wl.Failures)
	}
	checkEmitted := func(kind string, defs []metricDef, got map[string]value) {
		declared := map[string]string{}
		for _, d := range defs {
			declared[d.Name] = d.Unit
			v, ok := got[d.Name]
			if !ok {
				t.Errorf("%s metric %s is declared but not emitted", kind, d.Name)
			} else if v.Unit != d.Unit || v.Unit == "" {
				t.Errorf("%s metric %s emitted with unit %q, declared %q", kind, d.Name, v.Unit, d.Unit)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s metric %s = %v", kind, d.Name, v.Value)
			}
		}
		for n := range got {
			if _, ok := declared[n]; !ok {
				t.Errorf("%s metric %s is emitted but not declared", kind, n)
			}
		}
	}
	checkEmitted("end-to-end", endToEnd, wl.EndToEnd)
	checkEmitted("per-layer", perLayer(), wl.PerLayer)
	for _, d := range endToEnd {
		if wl.EndToEnd[d.Name].Value <= 0 {
			t.Errorf("end-to-end metric %s = %g; the contract wants metrics that are never 0", d.Name, wl.EndToEnd[d.Name].Value)
		}
	}
	sum := 0.0
	for n, v := range wl.PerLayer {
		if strings.HasSuffix(n, ".cpu_share") {
			sum += v.Value
		}
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("cpu shares sum to %g, want 1 within 0.01", sum)
	}

	// The driver's line: exactly four keys, value and unit per metric.
	var line struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]map[string]any
	}
	dec := json.NewDecoder(strings.NewReader(driverLine(wl, wl.EndToEnd)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		t.Fatalf("driver line: %v %+v", err, line)
	}
	if len(line.Metrics) != len(endToEnd) || len(line.Metrics["setup_s"]) != 2 {
		t.Errorf("driver line metrics = %v", line.Metrics)
	}

	// Span nesting: every cell's parent is a sweep call whose parent is an iteration.
	raw, err := os.ReadFile(filepath.Join(out, "trace-fig5-small.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct{ TraceEvents []traceEvent }
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	byID := map[float64]traceEvent{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" {
			byID[e.Args["id"].(float64)] = e
		}
	}
	cells := 0
	for _, e := range byID {
		if !strings.Contains(e.Name, "/") {
			continue
		}
		cells++
		call := byID[e.Args["parent"].(float64)]
		iter := byID[call.Args["parent"].(float64)]
		if !strings.HasPrefix(call.Name, "sweep call") || !strings.HasPrefix(iter.Name, "iteration") {
			t.Fatalf("cell %s nests under %q under %q", e.Name, call.Name, iter.Name)
		}
		if e.TS < call.TS || e.TS+e.Dur > call.TS+call.Dur+1 {
			t.Fatalf("cell %s [%g,+%g] is not inside %s [%g,+%g]", e.Name, e.TS, e.Dur, call.Name, call.TS, call.Dur)
		}
	}
	if cells != 125 {
		t.Errorf("trace holds %d cell spans, want 125", cells)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "host_cost", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "higher_is_better", Better: "higher", Bound: 0.05}
	v := func(x, spread float64) value { return value{Value: x, Spread: spread} }
	for _, c := range []struct {
		d    metricDef
		a, b value
		want string
	}{
		{lower, v(100, 0.02), v(105, 0.02), verdictWithin},
		{lower, v(100, 0.02), v(115, 0.02), verdictWorse},
		{lower, v(100, 0.02), v(80, 0.02), verdictBetter},
		{lower, v(100, 0.02), v(80, 0.12), verdictUnresolved},
		{higher, v(2.0, 0), v(1.8, 0), verdictWorse},
		{higher, v(2.0, 0), v(2.2, 0), verdictBetter},
		{higher, v(2.0, 0), v(2.0, 0), verdictWithin},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %g -> %g (spread %g/%g): %s, want %s", c.d.Name, c.a.Value, c.b.Value, c.a.Spread, c.b.Spread, got, c.want)
		}
	}
}

func TestCompareReportsRatioWithBaseAndDigest(t *testing.T) {
	mk := func(host float64, digest string) *result {
		return &result{Schema: resultSchema, CalibVersion: calibVersion, Workloads: []*workloadResult{{
			Name: "fig5-small", Digest: digest,
			EndToEnd: map[string]value{"host_cost": {Value: host, Unit: "calib-units", Spread: 0.01}},
			PerLayer: map[string]value{"sim.cpu_share": {Value: 0.5, Unit: "ratio"}, "mem.read_ns": {Value: host, Unit: "ns"}},
		}}}
	}
	var out strings.Builder
	if worse := compareResults(&out, mk(10, "aaaa"), mk(13, "bbbb")); worse != 1 {
		t.Errorf("worse rows = %d, want 1", worse)
	}
	for _, want := range []string{"1.3000 of base 10 calib-units", "worse", "DIFFERENT", "sim.cpu_share x host_cost", "mem.read_ns"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestBadInputFailsClearly(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema": "something-else"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, []byte(`{"schema": `), 0o644); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "bogus", "-out", dir}, `unknown workload "bogus"`},
		{[]string{"-trace", "2", "-out", dir}, "want 0 or 1"},
		{[]string{"-out", filepath.Join(file, "sub")}, "-out"},
		{[]string{"-compare", bad}, "two result files"},
		{[]string{"-compare", bad, bad}, "schema"},
		{[]string{"-compare", torn, torn}, "torn.json"},
		{[]string{"-compare", filepath.Join(dir, "absent.json"), bad}, "absent.json"},
	} {
		err := run(c.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want an error mentioning %q", c.args, err, c.want)
		}
	}
}
