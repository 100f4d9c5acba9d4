package sim

// Rand is a small deterministic xorshift64* generator. Every source of
// randomness in the simulator (workload inputs, backoff jitter, failover
// coin flips) draws from explicitly seeded Rand instances so that runs are
// bit-reproducible.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed (zero is remapped, since an
// all-zero xorshift state is absorbing).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next pseudo-random value. The sequence is a pure
// function of the seed, so draw order determines the values; a Rand
// shared across processors is drawn in schedule order.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n), consuming one Uint64 draw from the
// seeded sequence. It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1), consuming one Uint64 draw from the
// seeded sequence.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
