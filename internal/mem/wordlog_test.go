package mem

import (
	"math/rand"
	"testing"
)

type wordPut struct{ addr, val uint64 }

// replay is the reference WordLog is checked against: the surviving puts
// replayed into a plain map and a first-seen order.
func replay(puts []wordPut) (vals map[uint64]uint64, order []uint64) {
	vals = make(map[uint64]uint64)
	for _, p := range puts {
		if _, seen := vals[p.addr]; !seen {
			order = append(order, p.addr)
		}
		vals[p.addr] = p.val
	}
	return vals, order
}

func checkAgainst(t *testing.T, step string, l *WordLog, puts []wordPut) {
	t.Helper()
	vals, order := replay(puts)
	if l.Len() != len(puts) || (l.Len() == 0) != (len(vals) == 0) {
		t.Fatalf("%s: Len = %d with %d puts standing and %d words buffered", step, l.Len(), len(puts), len(vals))
	}
	// Eight words over the sixteen addresses the test stores to: half of
	// the probes are of words never stored.
	for addr := uint64(0); addr < 16*WordBytes; addr += WordBytes {
		want, in := vals[addr]
		if got, ok := l.Get(addr); ok != in || got != want {
			t.Fatalf("%s: Get(%#x) = %d, %v; want %d, %v", step, addr, got, ok, want, in)
		}
	}
	i := 0
	l.Words(func(addr, val uint64) {
		if i >= len(order) || addr != order[i] || val != vals[addr] {
			t.Fatalf("%s: Words call %d = (%#x, %d); want first-store order %#x with final values %v", step, i, addr, val, order, vals)
		}
		i++
	})
	if i != len(order) {
		t.Fatalf("%s: Words made %d calls for %d buffered words", step, i, len(order))
	}
}

// TestWordLogAgainstModel drives a log with random puts, truncations and
// resets and checks every observable after every step.
func TestWordLogAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var l WordLog
	var puts []wordPut
	checkAgainst(t, "zero value", &l, puts)
	for step := 0; step < 4000; step++ {
		switch r := rng.Intn(20); {
		case r == 0:
			l.Reset()
			puts = puts[:0]
		case r < 4:
			n := rng.Intn(len(puts) + 1)
			l.Truncate(n)
			puts = puts[:n]
		default:
			p := wordPut{uint64(rng.Intn(8)) * 2 * WordBytes, rng.Uint64()}
			l.Put(p.addr, p.val)
			puts = append(puts, p)
		}
		checkAgainst(t, "random step", &l, puts)
	}
}

// TestWordLogTruncatedFirstStore: a word whose first store is truncated
// away and which is stored again later takes its place in the order from
// the later store, and one overwritten inside the truncated span gets its
// earlier value back.
func TestWordLogTruncatedFirstStore(t *testing.T) {
	var l WordLog
	l.Put(8, 1)
	save := l.Len()
	l.Put(16, 2) // first stored inside the span
	l.Put(8, 3)  // overwritten inside the span
	l.Truncate(save)
	puts := []wordPut{{8, 1}}
	checkAgainst(t, "after truncate", &l, puts)
	l.Put(24, 4)
	l.Put(16, 5)
	checkAgainst(t, "stored again", &l, append(puts, wordPut{24, 4}, wordPut{16, 5}))
}

func TestWordLogReuseAllocatesNothing(t *testing.T) {
	var l WordLog
	var sum uint64
	cycle := func() {
		l.Reset()
		for i := uint64(0); i < 32; i++ {
			l.Put(i%24*WordBytes, i)
		}
		save := l.Len()
		l.Put(0, 99)
		l.Truncate(save)
		v, _ := l.Get(0)
		sum += v
		l.Words(func(_, val uint64) { sum += val })
	}
	cycle() // warm up: the version slice and the index grow once
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a warmed-up Reset/Put/Get/Words cycle allocated %v times, want 0", allocs)
	}
}
