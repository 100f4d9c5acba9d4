// Package obs is the observability substrate of the reproduction: a
// registry of named, typed metrics (counters, gauges, power-of-two
// histograms) that the machine, the TM systems, and the harness all
// register their event counts into, snapshotable to a stable,
// deterministic JSON schema (documented in OBSERVABILITY.md). Every
// number in the paper's evaluation — commits by mode, abort reasons,
// failovers, UFO faults, footprints — flows through here, so a sweep's
// results can be archived, diffed, and re-plotted without rerunning the
// simulator.
//
// Determinism is a design requirement, not an accident: snapshots order
// metrics by name, JSON encoding has a fixed field order, and merging is
// commutative over counter sums and histogram bucket sums, so the
// aggregate of a parallel sweep is byte-identical for every worker count.
//
// Paper: §5 (the evaluation's measurement infrastructure; Figures 5–8).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion identifies the snapshot JSON schema. Consumers should
// reject snapshots with an unknown schema string.
const SchemaVersion = "tmsim-metrics/v1"

// MetricType enumerates the metric kinds.
type MetricType string

// The metric kinds.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v uint64
}

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// GaugeMerge selects how a gauge combines across snapshots in
// Snapshot.Add. The zero value is MergeSum.
type GaugeMerge string

// The gauge merge rules. Each registered gauge picks one explicitly
// (Registry.Gauge registers sum-merged gauges, Registry.MaxGauge
// max-merged ones); OBSERVABILITY.md documents the rule per metric.
const (
	// MergeSum: values add across cells (extensive quantities).
	MergeSum GaugeMerge = ""
	// MergeMax: the aggregate keeps the largest cell value (peaks,
	// high-water marks). Encoded as "merge":"max" in snapshot JSON.
	MergeMax GaugeMerge = "max"
)

// Gauge is a point-in-time float64 metric. Every gauge declares its
// aggregation rule at registration: sum-merged gauges (Registry.Gauge)
// add across sweep cells like counters and so must hold extensive
// quantities; max-merged gauges (Registry.MaxGauge) keep the largest
// cell value and so suit peaks and high-water marks. Ratios belong to
// the consumer.
type Gauge struct {
	v float64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// DefaultHistBuckets covers observations 1 .. 2^16 in power-of-two
// buckets, mirroring machine.Hist so footprint histograms import
// losslessly.
const DefaultHistBuckets = 17

// WideHistBuckets covers observations 1 .. 2^32: the variant for
// cycle-scale values (transaction latencies), where the default range
// would clamp everything above ~65k cycles into one bucket.
const WideHistBuckets = 33

// Histogram is a power-of-two histogram: bucket i counts observations in
// (2^(i-1), 2^i]; bucket 0 counts zero observations. The zero value is a
// ready-to-use histogram with the default bucket range; NewWideHistogram
// (or Registry.WideHistogram) widens the range to 2^32.
type Histogram struct {
	count   uint64
	sum     uint64
	max     uint64
	width   int // 0 means DefaultHistBuckets, keeping the zero value usable
	buckets []uint64
}

// NewWideHistogram returns a histogram whose buckets cover 1 .. 2^32
// (WideHistBuckets) instead of the default 2^16 range.
func NewWideHistogram() *Histogram {
	return &Histogram{width: WideHistBuckets}
}

// Width returns the histogram's bucket count.
func (h *Histogram) Width() int {
	if h.width == 0 {
		return DefaultHistBuckets
	}
	return h.width
}

// grow lazily allocates the bucket slice (so zero-value Histograms work).
func (h *Histogram) grow() {
	if h.buckets == nil {
		h.buckets = make([]uint64, h.Width())
	}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.grow()
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	b := 0
	for x := v; x > 0; x >>= 1 {
		b++
	}
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b]++
}

// Import adds pre-aggregated histogram state (count, sum, max, and
// per-bucket counts) into h. Buckets beyond h's range accumulate into the
// last bucket. This is how machine.Hist instances register losslessly.
func (h *Histogram) Import(count, sum, max uint64, buckets []uint64) {
	h.grow()
	h.count += count
	h.sum += sum
	if max > h.max {
		h.max = max
	}
	for i, n := range buckets {
		if i >= len(h.buckets) {
			h.buckets[len(h.buckets)-1] += n
			continue
		}
		h.buckets[i] += n
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// metric is one registered entry.
type metric struct {
	name  string
	typ   MetricType
	unit  string
	help  string
	merge GaugeMerge // gauges only

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry holds named metrics. It is not safe for concurrent use: the
// simulation engine serializes processors within a run, and parallel
// sweeps give every cell its own registry (merged afterwards in job
// order), so no locking is needed anywhere.
type Registry struct {
	byName map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) lookup(name string, typ MetricType) *metric {
	if m, ok := r.byName[name]; ok {
		if m.typ != typ {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, m.typ, typ))
		}
		return m
	}
	m := &metric{name: name, typ: typ}
	r.byName[name] = m
	return m
}

// Counter registers (or returns the existing) counter under name. unit
// and help document the metric; they are recorded on first registration.
func (r *Registry) Counter(name, unit, help string) *Counter {
	m := r.lookup(name, TypeCounter)
	if m.c == nil {
		m.c, m.unit, m.help = &Counter{}, unit, help
	}
	return m.c
}

// Gauge registers (or returns the existing) gauge under name, merging
// by summation across snapshots (MergeSum).
func (r *Registry) Gauge(name, unit, help string) *Gauge {
	m := r.lookup(name, TypeGauge)
	if m.g == nil {
		m.g, m.unit, m.help = &Gauge{}, unit, help
	}
	return m.g
}

// MaxGauge registers (or returns the existing) gauge under name, merging
// by maximum across snapshots (MergeMax) — for peaks and high-water
// marks, where summing cells would fabricate a value no run observed.
func (r *Registry) MaxGauge(name, unit, help string) *Gauge {
	m := r.lookup(name, TypeGauge)
	if m.g == nil {
		m.g, m.unit, m.help, m.merge = &Gauge{}, unit, help, MergeMax
	}
	return m.g
}

// Histogram registers (or returns the existing) histogram under name.
func (r *Registry) Histogram(name, unit, help string) *Histogram {
	m := r.lookup(name, TypeHistogram)
	if m.h == nil {
		m.h, m.unit, m.help = &Histogram{}, unit, help
	}
	return m.h
}

// WideHistogram registers (or returns the existing) histogram under
// name with the wide 2^32 bucket range (WideHistBuckets) — for
// cycle-scale values such as transaction latencies.
func (r *Registry) WideHistogram(name, unit, help string) *Histogram {
	m := r.lookup(name, TypeHistogram)
	if m.h == nil {
		m.h, m.unit, m.help = NewWideHistogram(), unit, help
	}
	return m.h
}

// Snapshot freezes the histogram's state (trailing zero buckets trimmed),
// matching the per-metric representation Registry.Snapshot produces.
func (h *Histogram) Snapshot() *HistSnapshot {
	hs := &HistSnapshot{Count: h.count, Sum: h.sum, Max: h.max}
	end := len(h.buckets)
	for end > 0 && h.buckets[end-1] == 0 {
		end--
	}
	hs.Buckets = append([]uint64(nil), h.buckets[:end]...)
	return hs
}

// HistSnapshot is the frozen state of a histogram.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
	Buckets []uint64 `json:"buckets"` // trailing zero buckets trimmed
}

// Add merges other into h bucket-wise (the shorter bucket list
// zero-padded) and returns h. Both sides may be nil: a nil or empty
// other changes nothing, and a nil h starts from a fresh snapshot that
// shares no storage with other.
func (h *HistSnapshot) Add(other *HistSnapshot) *HistSnapshot {
	if other == nil || other.Count == 0 {
		return h
	}
	if h == nil {
		h = &HistSnapshot{}
	}
	h.Count += other.Count
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
	for len(h.Buckets) < len(other.Buckets) {
		h.Buckets = append(h.Buckets, 0)
	}
	for i, n := range other.Buckets {
		h.Buckets[i] += n
	}
	return h
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observations from
// the power-of-two buckets: it locates the bucket containing the rank
// ceil(q*count) and interpolates linearly across the bucket's value range
// [2^(i-1), 2^i - 1] (bucket 0 holds exactly the zero observations). The
// top of the last populated bucket is clamped to the recorded maximum, so
// high quantiles never exceed an observed value. The estimate is exact to
// within one bucket width, which is what a power-of-two histogram can
// promise.
func (h *HistSnapshot) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	last := len(h.Buckets) - 1
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next || i == last {
			var lo, hi float64
			if i > 0 {
				lo = float64(uint64(1) << (i - 1))
				hi = float64(uint64(1)<<i - 1)
			}
			if m := float64(h.Max); hi > m {
				hi = m
			}
			if hi < lo {
				hi = lo
			}
			return lo + (rank-cum)/float64(n)*(hi-lo)
		}
		cum = next
	}
	return float64(h.Max)
}

// P50 estimates the median.
func (h *HistSnapshot) P50() float64 { return h.Quantile(0.50) }

// P90 estimates the 90th percentile.
func (h *HistSnapshot) P90() float64 { return h.Quantile(0.90) }

// P99 estimates the 99th percentile.
func (h *HistSnapshot) P99() float64 { return h.Quantile(0.99) }

// P999 estimates the 99.9th percentile (tail latencies need the wide
// histogram range to be meaningful above ~65k cycles).
func (h *HistSnapshot) P999() float64 { return h.Quantile(0.999) }

// Metric is one frozen metric in a snapshot.
type Metric struct {
	Name  string
	Type  MetricType
	Unit  string
	Help  string
	Merge GaugeMerge // gauges only; MergeSum encodes as absent

	Value  uint64        // counter value
	FValue float64       // gauge value
	Hist   *HistSnapshot // histogram state
}

// MarshalJSON encodes the metric with a fixed field order and only the
// value field matching its type, keeping the schema stable and the bytes
// deterministic.
func (m Metric) MarshalJSON() ([]byte, error) {
	buf := []byte(`{"name":`)
	buf = strconv.AppendQuote(buf, m.Name)
	buf = append(buf, `,"type":`...)
	buf = strconv.AppendQuote(buf, string(m.Type))
	if m.Unit != "" {
		buf = append(buf, `,"unit":`...)
		buf = strconv.AppendQuote(buf, m.Unit)
	}
	if m.Help != "" {
		buf = append(buf, `,"help":`...)
		buf = strconv.AppendQuote(buf, m.Help)
	}
	if m.Merge != MergeSum {
		buf = append(buf, `,"merge":`...)
		buf = strconv.AppendQuote(buf, string(m.Merge))
	}
	switch m.Type {
	case TypeCounter:
		buf = append(buf, `,"value":`...)
		buf = strconv.AppendUint(buf, m.Value, 10)
	case TypeGauge:
		buf = append(buf, `,"value":`...)
		b, err := json.Marshal(m.FValue)
		if err != nil {
			return nil, err
		}
		buf = append(buf, b...)
	case TypeHistogram:
		buf = append(buf, `,"count":`...)
		buf = strconv.AppendUint(buf, m.Hist.Count, 10)
		buf = append(buf, `,"sum":`...)
		buf = strconv.AppendUint(buf, m.Hist.Sum, 10)
		buf = append(buf, `,"max":`...)
		buf = strconv.AppendUint(buf, m.Hist.Max, 10)
		buf = append(buf, `,"buckets":[`...)
		for i, n := range m.Hist.Buckets {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendUint(buf, n, 10)
		}
		buf = append(buf, ']')
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON decodes a metric (the inverse of MarshalJSON), so
// archived snapshots can be re-read for offline analysis.
func (m *Metric) UnmarshalJSON(data []byte) error {
	var raw struct {
		Name    string          `json:"name"`
		Type    MetricType      `json:"type"`
		Unit    string          `json:"unit"`
		Help    string          `json:"help"`
		Merge   GaugeMerge      `json:"merge"`
		Value   json.RawMessage `json:"value"`
		Count   uint64          `json:"count"`
		Sum     uint64          `json:"sum"`
		Max     uint64          `json:"max"`
		Buckets []uint64        `json:"buckets"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	m.Name, m.Type, m.Unit, m.Help, m.Merge = raw.Name, raw.Type, raw.Unit, raw.Help, raw.Merge
	switch raw.Type {
	case TypeCounter:
		if raw.Value != nil {
			if err := json.Unmarshal(raw.Value, &m.Value); err != nil {
				return err
			}
		}
	case TypeGauge:
		if raw.Value != nil {
			if err := json.Unmarshal(raw.Value, &m.FValue); err != nil {
				return err
			}
		}
	case TypeHistogram:
		m.Hist = &HistSnapshot{Count: raw.Count, Sum: raw.Sum, Max: raw.Max, Buckets: raw.Buckets}
	default:
		return fmt.Errorf("obs: unknown metric type %q", raw.Type)
	}
	return nil
}

// Snapshot is a frozen, name-ordered view of a registry.
type Snapshot struct {
	Schema  string   `json:"schema"`
	Metrics []Metric `json:"metrics"`
}

// Snapshot freezes the registry. Metrics are ordered by name, so two
// registries with the same contents produce byte-identical encodings.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Schema: SchemaVersion}
	names := make([]string, 0, len(r.byName))
	for name := range r.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.byName[name]
		out := Metric{Name: m.name, Type: m.typ, Unit: m.unit, Help: m.help, Merge: m.merge}
		switch m.typ {
		case TypeCounter:
			out.Value = m.c.v
		case TypeGauge:
			out.FValue = m.g.v
		case TypeHistogram:
			out.Hist = m.h.Snapshot()
		}
		s.Metrics = append(s.Metrics, out)
	}
	return s
}

// Get returns the metric with the given name, or nil.
func (s *Snapshot) Get(name string) *Metric {
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			return &s.Metrics[i]
		}
	}
	return nil
}

// Counter returns the named counter's value, or 0 when the metric is
// absent — convenient for report tables over heterogeneous cells.
func (s *Snapshot) Counter(name string) uint64 {
	if m := s.Get(name); m != nil {
		return m.Value
	}
	return 0
}

// Add merges other into s: counters sum, gauges follow their declared
// merge rule (MergeSum adds, MergeMax keeps the larger value),
// histograms merge bucket-wise, and metrics present in only one side
// carry over. The two sides must agree on the type of any shared name.
func (s *Snapshot) Add(other *Snapshot) {
	byName := make(map[string]int, len(s.Metrics))
	for i := range s.Metrics {
		byName[s.Metrics[i].Name] = i
	}
	for _, om := range other.Metrics {
		i, ok := byName[om.Name]
		if !ok {
			c := om
			if om.Hist != nil {
				c.Hist = new(HistSnapshot).Add(om.Hist) // s must not share other's buckets
			}
			s.Metrics = append(s.Metrics, c)
			continue
		}
		m := &s.Metrics[i]
		if m.Type != om.Type {
			panic(fmt.Sprintf("obs: merging metric %q: %s vs %s", om.Name, m.Type, om.Type))
		}
		switch m.Type {
		case TypeCounter:
			m.Value += om.Value
		case TypeGauge:
			if m.Merge == MergeMax {
				if om.FValue > m.FValue {
					m.FValue = om.FValue
				}
			} else {
				m.FValue += om.FValue
			}
		case TypeHistogram:
			m.Hist.Add(om.Hist)
		}
	}
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].Name < s.Metrics[j].Name })
}

// String renders the snapshot compactly and deterministically
// ("name=value ..."), so harness results containing snapshots render by
// value (not pointer address) under %v/%+v and can be compared as
// strings in determinism regressions.
func (s *Snapshot) String() string {
	var sb strings.Builder
	sb.WriteString(s.Schema)
	for _, m := range s.Metrics {
		sb.WriteByte(' ')
		sb.WriteString(m.Name)
		sb.WriteByte('=')
		switch m.Type {
		case TypeCounter:
			sb.WriteString(strconv.FormatUint(m.Value, 10))
		case TypeGauge:
			sb.WriteString(strconv.FormatFloat(m.FValue, 'g', -1, 64))
		case TypeHistogram:
			fmt.Fprintf(&sb, "hist(n=%d,sum=%d,max=%d)", m.Hist.Count, m.Hist.Sum, m.Hist.Max)
		}
	}
	return sb.String()
}

// WriteJSON writes the snapshot as indented JSON followed by a newline.
func (s *Snapshot) WriteJSON(w io.Writer) error { return WriteJSON(w, s) }

// WriteJSON is the one encoder behind every report file: v as
// two-space-indented JSON followed by a newline, in a single Write.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
