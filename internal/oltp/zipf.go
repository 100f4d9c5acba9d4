package oltp

import (
	"math"
	"sort"

	"repro/internal/sim"
)

// zipf draws keys in [1, n] with Zipfian skew: key k has probability
// proportional to 1/k^theta, so key 1 is the hottest. theta = 0 is the
// uniform distribution; production key-popularity traces typically fit
// theta in [0.9, 1.3].
//
// The generator inverts the exact cumulative distribution (zipfTable,
// computed once per (n, theta) pair and shared, read-only, by every
// stream drawing from it), so it is valid for every theta >= 0 —
// including theta >= 1, where the YCSB closed-form approximation breaks
// down. Draws consume exactly one value from the caller's seeded
// sim.Rand, so key sequences are a pure function of the seed.
type zipf struct {
	cum []float64 // cum[i] = P(key <= i+1), cum[n-1] == 1
	r   *sim.Rand
}

// zipfTable computes the cumulative distribution for n keys at skew
// theta: n calls of math.Pow, which is why streams share it.
func zipfTable(n int, theta float64) []float64 {
	if n < 1 {
		n = 1
	}
	if theta < 0 {
		theta = 0
	}
	cum := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
		cum[i-1] = sum
	}
	for i := range cum {
		cum[i] /= sum
	}
	return cum
}

// next draws one key in [1, n].
func (z *zipf) next() uint64 {
	u := z.r.Float64()
	i := sort.SearchFloat64s(z.cum, u)
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return uint64(i + 1)
}
