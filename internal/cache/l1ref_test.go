package cache

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// This file keeps the L1 that recency-ordered tag-only sets replaced —
// ways of {tag, lru stamp}, the victim the way with the oldest stamp —
// as the reference TestL1MatchesStampedLRU drives the L1 against.

type refWay struct {
	tag uint64
	lru uint64
}

type refL1 struct {
	ways   int
	mask   uint64
	all    []refWay
	clock  uint64
	misses uint64
	hits   uint64
}

func newRefL1(sets, ways int) *refL1 {
	return &refL1{ways: ways, mask: uint64(sets - 1), all: make([]refWay, sets*ways)}
}

func (c *refL1) set(line uint64) []refWay {
	i := int(line&c.mask) * c.ways
	return c.all[i : i+c.ways]
}

func (c *refL1) Touch(line uint64) (hit bool, victim uint64, evicted bool) {
	c.clock++
	set := c.set(line)
	var lruIdx int
	var freeIdx = -1
	for i := range set {
		w := &set[i]
		if w.tag == line+1 {
			w.lru = c.clock
			c.hits++
			return true, 0, false
		}
		if w.tag == 0 {
			freeIdx = i
		} else if set[lruIdx].lru > w.lru || set[lruIdx].tag == 0 {
			lruIdx = i
		}
	}
	c.misses++
	if freeIdx >= 0 {
		set[freeIdx] = refWay{tag: line + 1, lru: c.clock}
		return false, 0, false
	}
	victim = set[lruIdx].tag - 1
	set[lruIdx] = refWay{tag: line + 1, lru: c.clock}
	return false, victim, true
}

func (c *refL1) Invalidate(line uint64) {
	set := c.set(line)
	for i := range set {
		if w := &set[i]; w.tag == line+1 {
			w.tag = 0
			return
		}
	}
}

func (c *refL1) Reset() {
	clear(c.all)
	c.clock, c.misses, c.hits = 0, 0, 0
}

func (c *refL1) Lines() []uint64 {
	var out []uint64
	for _, w := range c.all {
		if w.tag != 0 {
			out = append(out, w.tag-1)
		}
	}
	return out
}

// TestL1MatchesStampedLRU drives the L1 and the stamped-LRU reference
// with the same seeded stream of Touch, Invalidate and Reset, at 1, 2, 4
// and 8 ways over power-of-two set counts, and after every operation
// requires the same hit, victim and eviction, the same counts and the
// same resident lines: recency order is exact LRU.
func TestL1MatchesStampedLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8} {
		for _, sets := range []int{1, 2, 16} {
			t.Run(fmt.Sprintf("ways=%d/sets=%d", ways, sets), func(t *testing.T) {
				c, ref := NewL1(sets*ways*64, 64, ways), newRefL1(sets, ways)
				rng := sim.NewRand(uint64(ways*100 + sets))
				// Lines span three times the cache, so a set sees hits,
				// misses into holes and evictions alike.
				lines := uint64(3 * sets * ways)
				for step := 0; step < 20000; step++ {
					line := rng.Uint64() % lines
					var op string
					switch k := rng.Intn(100); {
					case k < 80:
						op = fmt.Sprintf("Touch(%d)", line)
						hit, victim, evicted := c.Touch(line)
						rhit, rvictim, revicted := ref.Touch(line)
						if hit != rhit || victim != rvictim || evicted != revicted {
							t.Fatalf("step %d: %s = (%v, %d, %v), want (%v, %d, %v)", step, op, hit, victim, evicted, rhit, rvictim, revicted)
						}
					case k < 99:
						op = fmt.Sprintf("Invalidate(%d)", line)
						c.Invalidate(line)
						ref.Invalidate(line)
					default:
						op = "Reset"
						c.Reset()
						ref.Reset()
					}
					got, want := c.Lines(), ref.Lines()
					slices.Sort(got)
					slices.Sort(want)
					if c.Hits() != ref.hits || c.Misses() != ref.misses || !slices.Equal(got, want) {
						t.Fatalf("step %d, after %s: %d hits, %d misses, lines %v; want %d, %d, %v", step, op, c.Hits(), c.Misses(), got, ref.hits, ref.misses, want)
					}
				}
			})
		}
	}
}
