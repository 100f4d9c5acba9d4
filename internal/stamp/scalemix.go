package stamp

import (
	"sync"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
)

// ScaleMix is the scaling-study workload behind `tmsim -experiment
// scale`: compute-heavy, low-contention, and sized for the 64/128/256
// simulated-processor sweeps. Each thread's share of the work is
// dominated by real host-side computation (a hash chain whose digest the
// run commits and Validate compares with a replay, so it cannot be
// optimized away)
// charged to simulated time via Elapse; transactions are short and touch
// mostly per-thread lines, with a shared counter bumped every
// ScaleMixSharePeriod iterations to keep the coherence machinery honest.
//
// Like every workload in this package, total work is fixed independent
// of the thread count, so simulated speedups over the sequential
// baseline are well-defined.
type ScaleMix struct {
	// TotalIters is the total iteration count, divided among threads.
	TotalIters int
	// Work is the number of hash rounds (host compute) per iteration.
	Work int

	digests    *scaleDigests // shared by every workload of one NewScaleMixes
	threads    int
	slotBase   uint64
	digestBase uint64
	sharedAddr uint64
}

// scaleDigests is the table of expected digests the workloads of one
// NewScaleMixes share: per thread count, each thread's replayed hash
// chain. A sweep's cells validate on parallel workers, so it is filled
// under a lock.
type scaleDigests struct {
	mu      sync.Mutex
	want    map[int][]uint64 // thread count → digest per thread
	replays int              // thread counts replayed so far
}

const (
	// ScaleMixWorkCycles is the simulated cost charged per iteration's
	// compute.
	ScaleMixWorkCycles = 120
	// ScaleMixSharePeriod bumps the shared counter on every iteration
	// whose global index it divides.
	ScaleMixSharePeriod = 16
)

// NewScaleMixes returns the constructor of one sweep's ScaleMix
// workloads, each of totalIters iterations of work hash rounds. They
// share one table of expected digests, so the sweep replays each
// thread count's chains once, however many of its cells run at that
// count; every cell still checks its committed digests against that
// replay, which nothing in any run computed.
func NewScaleMixes(totalIters, work int) func() *ScaleMix {
	digests := &scaleDigests{want: map[int][]uint64{}}
	return func() *ScaleMix {
		return &ScaleMix{TotalIters: totalIters, Work: work, digests: digests}
	}
}

// Init implements Workload.
func (w *ScaleMix) Init(m *machine.Machine, threads int) {
	w.threads = threads
	w.slotBase = m.Mem.Sbrk(uint64(threads) * mem.LineBytes)
	w.digestBase = m.Mem.Sbrk(uint64(threads) * mem.LineBytes)
	w.sharedAddr = m.Mem.Sbrk(mem.LineBytes)
}

// mix64 is the SplitMix64 finalizer — cheap, statistically strong, and
// loop-carried so the compiler cannot elide the work.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 32
	return h
}

// digest replays thread i's hash chain over its iteration share.
func (w *ScaleMix) digest(i, lo, hi int) uint64 {
	h := uint64(i)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	for iter := lo; iter < hi; iter++ {
		for r := 0; r < w.Work; r++ {
			h = mix64(h + uint64(iter*w.Work+r))
		}
	}
	return h
}

// expected returns every thread's expected digest at w's thread count,
// replaying the chains the first time a workload of the table asks.
func (d *scaleDigests) expected(w *ScaleMix) []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	want, ok := d.want[w.threads]
	if !ok {
		want = make([]uint64, w.threads)
		for i := range want {
			lo, hi := split(w.TotalIters, w.threads, i)
			want[i] = w.digest(i, lo, hi)
		}
		d.want[w.threads] = want
		d.replays++
	}
	return want
}

// Thread implements Workload.
func (w *ScaleMix) Thread(i int, ex tm.Exec) {
	p := ex.Proc()
	lo, hi := split(w.TotalIters, w.threads, i)
	slot := w.slotBase + uint64(i)*mem.LineBytes
	h := uint64(i)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	// Both bodies are built once: an iteration allocates nothing.
	bumpSlot := func(tx tm.Tx) { tx.Store(slot, tx.Load(slot)+1) }
	bumpShared := func(tx tm.Tx) { tx.Store(w.sharedAddr, tx.Load(w.sharedAddr)+1) }
	for iter := lo; iter < hi; iter++ {
		for r := 0; r < w.Work; r++ {
			h = mix64(h + uint64(iter*w.Work+r))
		}
		p.Elapse(ScaleMixWorkCycles)
		ex.Atomic(bumpSlot)
		// Keyed on the global iteration index: the bump points fall at
		// different offsets within each thread's share, so threads do not
		// all hit the shared line at the same simulated instant.
		if iter%ScaleMixSharePeriod == 0 {
			ex.Atomic(bumpShared)
		}
	}
	ex.Store(w.digestBase+uint64(i)*mem.LineBytes, h)
}

// Validate implements Workload: per-thread counters must equal the
// iteration shares, the shared counter their ScaleMixSharePeriod
// quotients, and each committed digest the replayed hash chain — so a run
// that skipped or misordered compute fails even if the counters add up.
func (w *ScaleMix) Validate(m *machine.Machine) error {
	digests := w.digests.expected(w)
	var wantShared uint64
	for i := 0; i < w.threads; i++ {
		lo, hi := split(w.TotalIters, w.threads, i)
		if got, want := m.Mem.Read64(w.slotBase+uint64(i)*mem.LineBytes), uint64(hi-lo); got != want {
			return validErr("scalemix", "thread %d committed %d iterations, want %d", i, got, want)
		}
		if got, want := m.Mem.Read64(w.digestBase+uint64(i)*mem.LineBytes), digests[i]; got != want {
			return validErr("scalemix", "thread %d digest %#x, want %#x", i, got, want)
		}
		for iter := lo; iter < hi; iter++ {
			if iter%ScaleMixSharePeriod == 0 {
				wantShared++
			}
		}
	}
	if got := m.Mem.Read64(w.sharedAddr); got != wantShared {
		return validErr("scalemix", "shared counter %d, want %d", got, wantShared)
	}
	return nil
}
