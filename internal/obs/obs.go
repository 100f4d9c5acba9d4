// Package obs is the observability substrate of the reproduction: the
// Snapshot, a name-ordered list of typed metrics (counters, gauges,
// power-of-two histograms) that the machine, the TM systems and the
// observers write their end-of-run totals into, with a stable,
// deterministic JSON schema (documented in OBSERVABILITY.md), and the
// Histogram those layers observe into while a run is live. Every
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
	"math/bits"
	"slices"
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

// HistBuckets covers observations 1 .. 2^32 - 1 in power-of-two buckets:
// wide enough for cycle-scale values (transaction latencies) as well as
// footprints in lines.
const HistBuckets = 33

// Histogram is a power-of-two histogram: bucket i counts observations in
// [2^(i-1), 2^i - 1]; bucket 0 counts zero observations; an observation
// past the last bucket is clamped into it. The zero value is ready to
// use. The buckets are an array, so a Histogram copies by value
// (machine.Counters is copied into every Result) and observing
// allocates nothing.
type Histogram struct {
	count   uint64
	sum     uint64
	max     uint64
	buckets [HistBuckets]uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[min(bits.Len64(v), HistBuckets-1)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Snapshot freezes the histogram's state (trailing zero buckets trimmed):
// the representation a Snapshot holds and every report encodes.
func (h *Histogram) Snapshot() *HistSnapshot {
	hs := &HistSnapshot{Count: h.count, Sum: h.sum, Max: h.max}
	end := HistBuckets
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

// Mean returns the average observation.
func (h *HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// bucketTop returns the largest value bucket i holds: 0 for bucket 0,
// 2^i - 1 above it.
func bucketTop(i int) uint64 { return uint64(1)<<i - 1 }

// FracAtMost returns a lower bound on the fraction of observations that
// are ≤ limit: it counts the buckets that lie wholly at or below limit,
// so the bucket limit falls inside contributes nothing.
func (h *HistSnapshot) FracAtMost(limit uint64) float64 {
	if h.Count == 0 {
		return 0
	}
	var n uint64
	for i, c := range h.Buckets {
		if bucketTop(i) > limit {
			break
		}
		n += c
	}
	return float64(n) / float64(h.Count)
}

// String renders the non-empty buckets, each labelled with the largest
// value it holds.
func (h *HistSnapshot) String() string {
	if h.Count == 0 {
		return "(empty)"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d mean=%.1f max=%d [", h.Count, h.Mean(), h.Max)
	first := true
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if !first {
			sb.WriteString(" ")
		}
		first = false
		fmt.Fprintf(&sb, "≤%d:%d", bucketTop(i), c)
	}
	sb.WriteString("]")
	return sb.String()
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

// P999 estimates the 99.9th percentile.
func (h *HistSnapshot) P999() float64 { return h.Quantile(0.999) }

// Metric is one frozen metric in a snapshot. A gauge holds a peak or
// high-water mark: merged across snapshots it keeps the largest value,
// since summing cells would fabricate a value no run observed, and it
// encodes that rule as "merge":"max" (OBSERVABILITY.md). Counters are
// the extensive quantities; ratios belong to the consumer.
type Metric struct {
	Name string
	Type MetricType
	Unit string
	Help string

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
	switch m.Type {
	case TypeCounter:
		buf = append(buf, `,"value":`...)
		buf = strconv.AppendUint(buf, m.Value, 10)
	case TypeGauge:
		buf = append(buf, `,"merge":"max","value":`...)
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

// Snapshot is a name-ordered list of metrics: one run's end-of-run
// totals, or the merge of several. Whoever owns a number writes it once,
// after the run, with AddCounter, AddMaxGauge or AddHistogram; the
// metrics stay ordered by name however they were written, so two
// snapshots with the same contents encode byte-identically. It is not
// safe for concurrent use: every sweep cell fills its own snapshot, and
// cells are merged afterwards in job order.
type Snapshot struct {
	Schema  string   `json:"schema"`
	Metrics []Metric `json:"metrics"`
}

// NewSnapshot returns an empty snapshot carrying the schema string.
func NewSnapshot() *Snapshot { return &Snapshot{Schema: SchemaVersion} }

// put inserts m at its place in name order. A name written twice is a
// defect in the writer — two layers claiming one schema name — and
// panics.
func (s *Snapshot) put(m Metric) {
	i, found := sort.Find(len(s.Metrics), func(i int) int { return strings.Compare(m.Name, s.Metrics[i].Name) })
	if found {
		panic(fmt.Sprintf("obs: metric %q written twice", m.Name))
	}
	s.Metrics = slices.Insert(s.Metrics, i, m)
}

// AddCounter writes the counter name with value v. unit and help
// document the metric in the encoded snapshot.
func (s *Snapshot) AddCounter(name, unit, help string, v uint64) {
	s.put(Metric{Name: name, Type: TypeCounter, Unit: unit, Help: help, Value: v})
}

// AddMaxGauge writes the gauge name with value v, which merges by
// maximum across snapshots.
func (s *Snapshot) AddMaxGauge(name, unit, help string, v float64) {
	s.put(Metric{Name: name, Type: TypeGauge, Unit: unit, Help: help, FValue: v})
}

// AddHistogram writes the histogram name with h's current state, which
// it copies: observing into h afterwards does not change the snapshot.
func (s *Snapshot) AddHistogram(name, unit, help string, h *Histogram) {
	s.put(Metric{Name: name, Type: TypeHistogram, Unit: unit, Help: help, Hist: h.Snapshot()})
}

// Get returns the metric with the given name, or nil; a nil snapshot (a
// failed cell's) has none.
func (s *Snapshot) Get(name string) *Metric {
	if s == nil {
		return nil
	}
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

// Add merges other into s: counters sum, gauges keep the larger value,
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
			m.FValue = max(m.FValue, om.FValue)
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

// WriteJSON is the one encoder behind every report file: v as
// two-space-indented JSON followed by a newline, in a single Write.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
