package oltp

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestZipfSkewHottestKey: at production-like skew the low keys dominate,
// and key 1 is the single most frequent draw.
func TestZipfSkewHottestKey(t *testing.T) {
	z := &zipf{cum: zipfTable(1000, 1.2), r: sim.NewRand(7)}
	counts := make(map[uint64]int)
	const draws = 20000
	for i := 0; i < draws; i++ {
		counts[z.next()]++
	}
	for k, n := range counts {
		if k != 1 && n > counts[1] {
			t.Fatalf("key %d drawn %d times > key 1's %d", k, n, counts[1])
		}
	}
	// 1/H(1000, 1.2) ~= 0.18: the hot key should carry a visible share.
	if share := float64(counts[1]) / draws; share < 0.10 {
		t.Fatalf("key 1 share = %.3f, want >= 0.10 at theta 1.2", share)
	}
}

// TestZipfUniformAtZeroTheta: theta 0 is the uniform distribution; no
// key should stray far from the expected count.
func TestZipfUniformAtZeroTheta(t *testing.T) {
	const n, draws = 16, 32000
	z := &zipf{cum: zipfTable(n, 0), r: sim.NewRand(9)}
	counts := make([]int, n+1)
	for i := 0; i < draws; i++ {
		k := z.next()
		if k < 1 || k > n {
			t.Fatalf("key %d out of [1, %d]", k, n)
		}
		counts[k]++
	}
	want := float64(draws) / n
	for k := 1; k <= n; k++ {
		if math.Abs(float64(counts[k])-want) > want/2 {
			t.Fatalf("key %d drawn %d times, want ~%.0f", k, counts[k], want)
		}
	}
}

// TestZipfHandlesThetaOne: the exact-CDF generator must not degenerate
// at theta == 1, where closed-form approximations break down.
func TestZipfHandlesThetaOne(t *testing.T) {
	z := &zipf{cum: zipfTable(100, 1.0), r: sim.NewRand(3)}
	seen := make(map[uint64]bool)
	for i := 0; i < 5000; i++ {
		seen[z.next()] = true
	}
	if len(seen) < 50 {
		t.Fatalf("only %d distinct keys at theta=1, want a spread distribution", len(seen))
	}
}

// TestPoissonMeanGap: the exponential sampler's empirical mean tracks
// the configured mean gap.
func TestPoissonMeanGap(t *testing.T) {
	const mean = 500
	a := newArrival(ArrivalPoisson, mean, sim.NewRand(11))
	var sum float64
	const draws = 50000
	for i := 0; i < draws; i++ {
		sum += float64(a.next())
	}
	got := sum / draws
	if got < 0.9*mean || got > 1.1*mean {
		t.Fatalf("empirical mean gap = %.1f, want ~%d", got, mean)
	}
}

// TestMMPPBurstierThanPoisson: at the same configured mean the two-state
// MMPP stream must have a higher coefficient of variation than the
// Poisson stream — that burstiness is its whole purpose.
func TestMMPPBurstierThanPoisson(t *testing.T) {
	cv := func(kind ArrivalKind) float64 {
		a := newArrival(kind, 400, sim.NewRand(13))
		const draws = 50000
		gaps := make([]float64, draws)
		var sum float64
		for i := range gaps {
			gaps[i] = float64(a.next())
			sum += gaps[i]
		}
		mean := sum / draws
		var varsum float64
		for _, g := range gaps {
			varsum += (g - mean) * (g - mean)
		}
		return math.Sqrt(varsum/draws) / mean
	}
	p, m := cv(ArrivalPoisson), cv(ArrivalMMPP)
	if m <= p {
		t.Fatalf("MMPP cv %.3f <= Poisson cv %.3f; expected burstier arrivals", m, p)
	}
}

// TestParseArrival: known names resolve, unknown names name the valid
// set.
func TestParseArrival(t *testing.T) {
	for _, k := range ArrivalKinds {
		got, err := ParseArrival(string(k))
		if err != nil || got != k {
			t.Fatalf("ParseArrival(%q) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseArrival("uniform"); err == nil {
		t.Fatal("ParseArrival accepted an unknown process")
	}
}

// TestTraceDeterministic pins the generator contract the sweep's
// byte-identical reports rest on: equal configs produce identical
// traces, call after call; different procs and seeds produce different
// ones.
func TestTraceDeterministic(t *testing.T) {
	cfg := Config{Keys: 64, RequestsPerProc: 200, Theta: 0.9, ReadPct: 80, RMWPct: 15, ScanPct: 5,
		ScanLen: 4, MeanGap: 300, Arrival: ArrivalMMPP, Seed: 42}
	a, b := cfg.Traces(4)[3], cfg.Traces(4)[3]
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (config, proc) generated different traces")
	}
	if reflect.DeepEqual(a, cfg.Traces(5)[4]) {
		t.Fatal("different procs generated identical traces")
	}
	other := cfg
	other.Seed = 43
	if reflect.DeepEqual(a, other.Traces(4)[3]) {
		t.Fatal("different seeds generated identical traces")
	}
}

// TestTraceShape: arrivals strictly increase, keys stay in range, and
// the op mix matches the configured percentages roughly.
func TestTraceShape(t *testing.T) {
	cfg := Config{Keys: 32, RequestsPerProc: 5000, Theta: 0.5, ReadPct: 70, RMWPct: 20, ScanPct: 10,
		ScanLen: 4, MeanGap: 100, Arrival: ArrivalPoisson, Seed: 5}
	tr := cfg.Traces(1)[0]
	if len(tr) != cfg.RequestsPerProc {
		t.Fatalf("trace length %d, want %d", len(tr), cfg.RequestsPerProc)
	}
	var prev uint64
	counts := map[Op]int{}
	for _, rq := range tr {
		if rq.Arrival <= prev {
			t.Fatalf("arrival %d not after %d", rq.Arrival, prev)
		}
		prev = rq.Arrival
		if rq.Key < 1 || rq.Key > uint64(cfg.Keys) {
			t.Fatalf("key %d out of range", rq.Key)
		}
		counts[rq.Op]++
	}
	total := float64(len(tr))
	for op, wantPct := range map[Op]float64{OpRead: 70, OpRMW: 20, OpScan: 10} {
		got := 100 * float64(counts[op]) / total
		if math.Abs(got-wantPct) > 5 {
			t.Fatalf("op %d share %.1f%%, want ~%.0f%%", op, got, wantPct)
		}
	}
}

// TestOfferedMatchesTraces: Offered reports exactly the regenerated
// traces' request count and arrival span.
func TestOfferedMatchesTraces(t *testing.T) {
	cfg := Config{Keys: 16, RequestsPerProc: 50, ReadPct: 80, RMWPct: 15, ScanPct: 5,
		ScanLen: 2, MeanGap: 200, Arrival: ArrivalPoisson, Seed: 8}
	reqs, span := Offered(cfg.Traces(3))
	if reqs != 150 {
		t.Fatalf("requests = %d, want 150", reqs)
	}
	var wantSpan uint64
	for i := 0; i < 3; i++ {
		tr := cfg.Traces(i + 1)[i]
		if last := tr[len(tr)-1].Arrival; last > wantSpan {
			wantSpan = last
		}
	}
	if span != wantSpan {
		t.Fatalf("span = %d, want %d", span, wantSpan)
	}
}

// TestMixNotSummingTo100Panics: a mix that does not sum to 100 is a
// construction bug. It used to run silently as 80/15/5; now New, Replay
// and Traces panic and name the mix.
func TestMixNotSummingTo100Panics(t *testing.T) {
	cfg := Config{Keys: 16, RequestsPerProc: 10, ReadPct: 50, RMWPct: 20, ScanPct: 5,
		ScanLen: 2, MeanGap: 200, Arrival: ArrivalPoisson, Seed: 8}
	for name, build := range map[string]func(){
		"New":    func() { New(cfg) },
		"Replay": func() { Replay(cfg, nil) },
		"Traces": func() { cfg.Traces(1) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "50/20/5") {
					t.Errorf("%s of a 50/20/5 mix: panic %q, want one naming the mix", name, msg)
				}
			}()
			build()
		}()
	}
}
