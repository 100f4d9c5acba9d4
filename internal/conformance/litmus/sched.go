package litmus

import (
	"fmt"

	"repro/internal/sim"
)

// A Schedule pins every operation of a program to an absolute point in
// simulated time. Order is a multiset permutation of thread indices —
// Order[i] names the thread whose next operation owns global slot i —
// and each slot i is pinned to time i*Gap via machine.Proc.ElapseUntil.
// Replaying the same Schedule therefore yields the same machine-level
// interleaving under both the reference and the run-ahead scheduler,
// which is what makes the whole sweep deterministic.
//
// Gap is swept over several magnitudes because the interesting anomalies
// live at different timescales: a 0-cycle gap piles every operation onto
// the same instant (maximum overlap inside the memory system), while a
// gap larger than a miss-to-memory (300 cycles) or a TL2 commit
// write-back separates operations enough that a non-transactional reader
// can land between a transaction's eager stores or mid write-back.
type Schedule struct {
	Order []int
	Gap   uint64
}

// DefaultGaps is the standard gap sweep: same-instant, around an L2 hit
// and a line transfer (20/60), around a memory miss (300), and two
// settings that dwarf any single access so consecutive slots cannot
// overlap in the memory system at all.
var DefaultGaps = []uint64{0, 60, 130, 300, 800, 2500}

// slotTimes returns, per thread, the pinned slot time of each of its
// operations under sch (thread-local operation order).
func (sch Schedule) slotTimes(opCounts []int) [][]uint64 {
	times := make([][]uint64, len(opCounts))
	for i, n := range opCounts {
		times[i] = make([]uint64, 0, n)
	}
	for slot, ti := range sch.Order {
		times[ti] = append(times[ti], uint64(slot)*sch.Gap)
	}
	return times
}

// EnumOrders enumerates multiset permutations of thread indices for the
// given per-thread operation counts, in lexicographic order. When the
// space exceeds cap, it returns a deterministic seeded sample of cap
// orders instead (always including the all-thread-0-first and reversed
// extremes, which DFS would otherwise be biased toward or away from).
// The total size of the space is returned alongside.
func EnumOrders(opCounts []int, cap int, seed uint64) (orders [][]int, total int) {
	total = multinomial(opCounts)
	if cap <= 0 || total <= cap {
		orders = make([][]int, 0, total)
		remaining := append([]int(nil), opCounts...)
		prefix := make([]int, 0, sum(opCounts))
		enumOrdersDFS(remaining, prefix, &orders)
		return orders, total
	}
	// Sample: draw random multiset permutations by weighted choice at
	// each position. Dedup so the cap buys distinct schedules.
	rng := sim.NewRand(seed)
	seen := make(map[string]bool, cap)
	orders = make([][]int, 0, cap)
	add := func(o []int) {
		if k := fmt.Sprint(o); !seen[k] {
			seen[k] = true
			orders = append(orders, o)
		}
	}
	add(firstOrder(opCounts, false))
	add(firstOrder(opCounts, true))
	for tries := 0; len(orders) < cap && tries < cap*64; tries++ {
		add(randomOrder(opCounts, rng))
	}
	return orders, total
}

func enumOrdersDFS(remaining []int, prefix []int, out *[][]int) {
	done := true
	for ti, n := range remaining {
		if n == 0 {
			continue
		}
		done = false
		remaining[ti]--
		prefix = append(prefix, ti)
		enumOrdersDFS(remaining, prefix, out)
		prefix = prefix[:len(prefix)-1]
		remaining[ti]++
	}
	if done {
		*out = append(*out, append([]int(nil), prefix...))
	}
}

// firstOrder lays threads out back to back (thread 0's ops, then thread
// 1's, ...), or in reverse thread order when rev is set.
func firstOrder(opCounts []int, rev bool) []int {
	order := make([]int, 0, sum(opCounts))
	for i := range opCounts {
		ti := i
		if rev {
			ti = len(opCounts) - 1 - i
		}
		for k := 0; k < opCounts[ti]; k++ {
			order = append(order, ti)
		}
	}
	return order
}

func randomOrder(opCounts []int, rng *sim.Rand) []int {
	remaining := append([]int(nil), opCounts...)
	left := sum(remaining)
	order := make([]int, 0, left)
	for left > 0 {
		pick := rng.Intn(left)
		for ti, n := range remaining {
			if pick < n {
				order = append(order, ti)
				remaining[ti]--
				break
			}
			pick -= n
		}
		left--
	}
	return order
}

func multinomial(counts []int) int {
	// (n choose c0) * (n-c0 choose c1) * ... with overflow clamping:
	// anything past a million is "way beyond any cap" already.
	const clamp = 1 << 20
	n := sum(counts)
	total := 1
	for _, c := range counts {
		total *= choose(n, c)
		if total >= clamp || total < 0 {
			return clamp
		}
		n -= c
	}
	return total
}

func choose(n, k int) int {
	if k > n-k {
		k = n - k
	}
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
