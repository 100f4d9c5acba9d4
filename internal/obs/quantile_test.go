package obs

import (
	"math"
	"testing"
)

func histOf(values ...uint64) *HistSnapshot {
	var h Histogram
	for _, v := range values {
		h.Observe(v)
	}
	return h.Snapshot()
}

// TestQuantileUniform checks the estimator against the uniform
// distribution 1..100 (one observation each), whose exact percentiles
// are known: the power-of-two interpolation must land within one
// bucket's resolution of them.
func TestQuantileUniform(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Hand-computed from the bucket layout: rank 50 interpolates inside
	// [32,63] to 50.40625; ranks 90 and 99 inside [64,100].
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 32 + 19.0/32*31}, // 50.40625
		{0.90, 64 + 27.0/37*36}, // ≈90.27
		{0.99, 64 + 36.0/37*36}, // ≈99.03
		{1.00, 100},
	}
	for _, c := range cases {
		got := s.Quantile(c.q)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if p50, p90, p99 := s.P50(), s.P90(), s.P99(); !(p50 <= p90 && p90 <= p99 && p99 <= float64(s.Max)) {
		t.Errorf("percentiles not monotone: p50=%v p90=%v p99=%v max=%d", p50, p90, p99, s.Max)
	}
	// The estimates track the true percentiles within a bucket width.
	if math.Abs(s.P50()-50) > 1 || math.Abs(s.P90()-90) > 1 || math.Abs(s.P99()-99) > 1 {
		t.Errorf("estimates drifted: p50=%v p90=%v p99=%v", s.P50(), s.P90(), s.P99())
	}
}

// TestQuantileZerosAndOnes: a 90/10 zero/one mix has exactly known
// percentiles (bucket 0 and bucket 1 are both single-valued).
func TestQuantileZerosAndOnes(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(0)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1)
	}
	s := h.Snapshot()
	if got := s.P50(); got != 0 {
		t.Errorf("P50 = %v, want 0", got)
	}
	if got := s.P90(); got != 0 {
		t.Errorf("P90 = %v, want 0 (rank 90 is the last zero)", got)
	}
	if got := s.P99(); got != 1 {
		t.Errorf("P99 = %v, want 1", got)
	}
}

// TestQuantileSingleObservation: with one sample every quantile is that
// sample, exactly — the bucket top is clamped to Max.
func TestQuantileSingleObservation(t *testing.T) {
	s := histOf(1000)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		if got := s.Quantile(q); got != 1000 {
			t.Errorf("Quantile(%v) = %v, want 1000", q, got)
		}
	}
}

// TestQuantileConstant: repeated identical samples stay inside the
// sample's bucket, and never exceed Max.
func TestQuantileConstant(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(7)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := s.Quantile(q)
		if got < 4 || got > 7 {
			t.Errorf("Quantile(%v) = %v, want within bucket [4,7]", q, got)
		}
	}
	if s.Quantile(1) > float64(s.Max) {
		t.Errorf("Quantile(1) = %v exceeds max %d", s.Quantile(1), s.Max)
	}
}

// TestQuantileEmptyAndNil: degenerate snapshots report 0 rather than
// panicking (renderers call these unconditionally).
func TestQuantileEmptyAndNil(t *testing.T) {
	var nilSnap *HistSnapshot
	if got := nilSnap.Quantile(0.5); got != 0 {
		t.Errorf("nil Quantile = %v", got)
	}
	if got := histOf().P99(); got != 0 {
		t.Errorf("empty P99 = %v", got)
	}
}

// TestQuantileWideRange: the histogram keeps resolution for cycle-scale
// values up to 2^32 - 1 and clamps only past that, into its last bucket.
func TestQuantileWideRange(t *testing.T) {
	var wide, past Histogram
	for _, v := range []uint64{1 << 17, 1 << 20, 1 << 24, 1 << 28, 1 << 31} {
		wide.Observe(v)
		past.Observe(v << 16)
	}
	ws, ps := wide.Snapshot(), past.Snapshot()
	if len(ps.Buckets) != HistBuckets || ps.Buckets[HistBuckets-1] != 5 || ps.Max != 1<<47 {
		t.Fatalf("observations of 2^33 and up should share the last bucket and keep their max: %+v", ps)
	}
	if len(ws.Buckets) != 33 {
		t.Fatalf("wide buckets trimmed to %d, want 33 (2^31 has bit length 32)", len(ws.Buckets))
	}
	// Each sample lands in its own bucket, so the median is interpolated
	// inside [2^24, 2^25-1] (the bucket holding the 2^24 sample).
	if got := ws.P50(); got < 1<<24 || got > 1<<25 {
		t.Errorf("wide P50 = %v, want within [2^24, 2^25]", got)
	}
	if got := ws.Quantile(1); got != float64(uint64(1)<<31) {
		t.Errorf("wide Quantile(1) = %v, want 2^31", got)
	}
}

// TestQuantileP999: the 99.9th percentile separates a 1-in-1000 tail
// that P99 misses, given the wide bucket range.
func TestQuantileP999(t *testing.T) {
	var h Histogram
	for i := 0; i < 995; i++ {
		h.Observe(100)
	}
	for i := 0; i < 5; i++ {
		h.Observe(1 << 20)
	}
	s := h.Snapshot()
	if p99 := s.P99(); p99 > 128 {
		t.Errorf("P99 = %v, want inside the body bucket", p99)
	}
	if p999 := s.P999(); p999 < 1<<19 {
		t.Errorf("P999 = %v, want inside the tail bucket (>= 2^19)", p999)
	}
	if got := s.P999(); got > float64(s.Max) {
		t.Errorf("P999 = %v exceeds max %d", got, s.Max)
	}
}
