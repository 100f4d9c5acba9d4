package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	s := NewSnapshot()
	s.AddCounter("a.count", "events", "help text", 4)
	s.AddMaxGauge("a.gauge", "cycles", "", 2.5)
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 8, 1 << 20} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("hist count = %d", h.Count())
	}
	s.AddHistogram("a.hist", "lines", "", &h)

	if s.Schema != SchemaVersion {
		t.Fatalf("schema = %q", s.Schema)
	}
	if got := s.Get("a.count"); got == nil || got.Value != 4 || got.Unit != "events" {
		t.Fatalf("snapshot counter = %+v", got)
	}
	if got := s.Get("a.gauge"); got == nil || got.FValue != 2.5 || got.Type != TypeGauge {
		t.Fatalf("snapshot gauge = %+v", got)
	}
	hs := s.Get("a.hist")
	if hs == nil || hs.Hist.Count != 6 || hs.Hist.Max != 1<<20 {
		t.Fatalf("snapshot hist = %+v", hs)
	}
	// Buckets: 0 → b0; 1 → b1; 2 → b2; 3 → b2; 8 → b4; 2^20 → clamped last.
	if hs.Hist.Buckets[0] != 1 || hs.Hist.Buckets[1] != 1 || hs.Hist.Buckets[2] != 2 || hs.Hist.Buckets[4] != 1 {
		t.Fatalf("buckets = %v", hs.Hist.Buckets)
	}
	if hs.Hist.Buckets[len(hs.Hist.Buckets)-1] != 1 {
		t.Fatalf("overflow bucket: %v", hs.Hist.Buckets)
	}
	// A failed cell has no snapshot: it holds no metric, and no counter.
	var none *Snapshot
	if none.Get("a.count") != nil || none.Counter("a.count") != 0 {
		t.Fatal("a nil snapshot reports a metric")
	}
}

// TestHistogramCopiesByValue: machine.Counters is copied into every
// harness.Result while the machine lives on, so a copy of a Histogram
// must not share buckets with the original.
func TestHistogramCopiesByValue(t *testing.T) {
	var h Histogram
	h.Observe(3)
	frozen := h
	h.Observe(100)
	if got := frozen.Snapshot(); got.Count != 1 || got.Max != 3 || len(got.Buckets) != 3 {
		t.Fatalf("copy changed with the original: %+v", got)
	}
	if got := h.Snapshot(); got.Count != 2 || got.Max != 100 {
		t.Fatalf("original = %+v", got)
	}
	// A written histogram is a copy too.
	s := NewSnapshot()
	s.AddHistogram("h", "lines", "", &h)
	h.Observe(7)
	if got := s.Get("h").Hist.Count; got != 2 {
		t.Fatalf("snapshot followed a later Observe: count = %d", got)
	}
}

// TestFracAtMostIsALowerBound: a bucket counts toward "≤ limit" only
// when every value it can hold is, and String labels a bucket with the
// largest value it holds. One observation of 100 sits in [64, 127]: it
// is not known to be ≤ 64.
func TestFracAtMostIsALowerBound(t *testing.T) {
	var h Histogram
	h.Observe(100)
	hs := h.Snapshot()
	if got := hs.FracAtMost(64); got != 0 {
		t.Errorf("FracAtMost(64) = %v, want 0: 100 is above the limit", got)
	}
	if got := hs.FracAtMost(127); got != 1 {
		t.Errorf("FracAtMost(127) = %v, want 1", got)
	}
	if got := hs.String(); !strings.Contains(got, "≤127:1") {
		t.Errorf("String() = %q, want the bucket labelled ≤127:1", got)
	}
	if hs.Mean() != 100 {
		t.Errorf("Mean() = %v", hs.Mean())
	}
}

// TestTypeConflictPanics: a name belongs to one writer. Writing it twice
// panics whether the second write has another type (the conflict the
// registry used to catch) or the same one.
func TestTypeConflictPanics(t *testing.T) {
	for name, again := range map[string]func(*Snapshot){
		"same type":  func(s *Snapshot) { s.AddCounter("x", "", "", 2) },
		"other type": func(s *Snapshot) { s.AddMaxGauge("x", "", "", 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on a name written twice", name)
				}
			}()
			s := NewSnapshot()
			s.AddCounter("a", "", "", 1)
			s.AddCounter("x", "", "", 1)
			again(s)
		}()
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	var h Histogram
	h.Observe(5)
	build := func(order []string) []byte {
		s := NewSnapshot()
		for _, n := range order {
			switch n {
			case "h":
				s.AddHistogram(n, "lines", "footprints", &h)
			case "g":
				s.AddMaxGauge(n, "ratio", "", 0.25)
			default:
				s.AddCounter(n, "events", "", 7)
			}
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := build([]string{"z", "a", "h", "m", "g"})
	b := build([]string{"g", "m", "z", "h", "a"})
	if !bytes.Equal(a, b) {
		t.Fatalf("write order changed encoding:\n%s\nvs\n%s", a, b)
	}
	if ia, im, iz := bytes.Index(a, []byte(`"a"`)), bytes.Index(a, []byte(`"m"`)), bytes.Index(a, []byte(`"z"`)); !(ia < im && im < iz) {
		t.Fatalf("metrics not in name order:\n%s", a)
	}
	// The encoding must be valid JSON with fields in documented order.
	var raw map[string]any
	if err := json.Unmarshal(a, &raw); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if !strings.Contains(string(a), `"schema": "`+SchemaVersion+`"`) {
		t.Fatalf("schema missing:\n%s", a)
	}
}

// TestMetricRoundTrip: the snapshot schema (OBSERVABILITY.md) decodes
// with a plain encoding/json struct, and every value comes back.
func TestMetricRoundTrip(t *testing.T) {
	s := NewSnapshot()
	s.AddCounter("c", "events", "a counter", 9)
	s.AddMaxGauge("g", "", "", 1.5)
	var h Histogram
	h.Observe(3)
	h.Observe(100)
	s.AddHistogram("h", "lines", "", &h)
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Schema  string `json:"schema"`
		Metrics []struct {
			Name, Type, Unit, Help, Merge string
			Value                         float64
			Count, Sum, Max               uint64
			Buckets                       []uint64
		} `json:"metrics"`
	}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion || len(back.Metrics) != 3 {
		t.Fatalf("decoded %+v", back)
	}
	c, g, hs := back.Metrics[0], back.Metrics[1], back.Metrics[2]
	if c.Name != "c" || c.Type != "counter" || c.Unit != "events" || c.Help != "a counter" || c.Value != 9 {
		t.Errorf("counter decoded as %+v", c)
	}
	if g.Name != "g" || g.Type != "gauge" || g.Merge != "max" || g.Value != 1.5 {
		t.Errorf("gauge decoded as %+v", g)
	}
	want := s.Get("h").Hist
	if hs.Type != "histogram" || hs.Count != want.Count || hs.Sum != want.Sum || hs.Max != want.Max ||
		!slices.Equal(hs.Buckets, want.Buckets) {
		t.Errorf("histogram decoded as %+v, want %+v", hs, want)
	}
}

func TestSnapshotAdd(t *testing.T) {
	mk := func(shared uint64, only string, onlyV, observed uint64) *Snapshot {
		s := NewSnapshot()
		s.AddCounter("shared", "", "", shared)
		s.AddCounter(only, "", "", onlyV)
		var h Histogram
		h.Observe(observed)
		s.AddHistogram("h", "lines", "", &h)
		return s
	}
	mk1 := func() *Snapshot { return mk(2, "only1", 1, 4) }
	mk2 := func() *Snapshot { return mk(5, "only2", 3, 1000) }

	s := mk1()
	s.Add(mk2())
	if got := s.Get("shared").Value; got != 7 {
		t.Fatalf("shared = %d, want 7", got)
	}
	if s.Get("only1").Value != 1 || s.Get("only2").Value != 3 {
		t.Fatal("one-sided metrics lost")
	}
	h := s.Get("h").Hist
	if h.Count != 2 || h.Sum != 1004 || h.Max != 1000 {
		t.Fatalf("merged hist = %+v", h)
	}
	// Merge order must not matter for the encoded bytes.
	s2 := mk2()
	s2.Add(mk1())
	var a, b bytes.Buffer
	if err := WriteJSON(&a, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merge order changed encoding:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestGaugeMergeRules pins the one gauge merge rule: a gauge keeps the
// largest value across snapshots, in either merge order, and encodes the
// rule as "merge":"max".
func TestGaugeMergeRules(t *testing.T) {
	mk := func(v float64) *Snapshot {
		s := NewSnapshot()
		s.AddMaxGauge("g", "", "", v)
		return s
	}
	for _, order := range [][2]float64{{5, 4}, {4, 5}} {
		a := mk(order[0])
		a.Add(mk(order[1]))
		if got := a.Get("g").FValue; got != 5 {
			t.Errorf("%v then %v merged to %v, want 5", order[0], order[1], got)
		}
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, mk(1)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"merge": "max"`) {
		t.Fatalf("gauge missing its merge field:\n%s", buf.String())
	}
}

// TestWideHistogramSnapshot: a cycle-scale observation (far past a
// footprint's range) snapshots with its own bucket and merges with a
// footprint-scale one.
func TestWideHistogramSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(1 << 25)
	s := NewSnapshot()
	s.AddHistogram("lat", "cycles", "", &h)
	if got := s.Get("lat").Hist.Max; got != 1<<25 {
		t.Fatalf("wide hist max = %d", got)
	}
	if n := len(s.Get("lat").Hist.Buckets); n != 27 {
		t.Fatalf("bucket count = %d, want 27 (bit length of 2^25 is 26)", n)
	}
	// Merging a long bucket list into a short one pads rather than truncates.
	var narrow Histogram
	narrow.Observe(3)
	s2 := NewSnapshot()
	s2.AddHistogram("lat", "cycles", "", &narrow)
	s2.Add(s)
	if got := s2.Get("lat").Hist.Count; got != 2 {
		t.Fatalf("merged count = %d", got)
	}
	if n := len(s2.Get("lat").Hist.Buckets); n != 27 {
		t.Fatalf("merged bucket count = %d, want 27", n)
	}
}
