// Lockelision example: BTM beyond transactional memory (Section 3.1 —
// "hardware should provide primitives, not solutions"). A hash table is
// guarded by one coarse lock; with speculative lock elision the lock is
// only read, so operations on different buckets proceed concurrently and
// the lock serializes execution only when speculation genuinely fails.
// The same program runs under the plain global lock for comparison.
// Run with:
//
//	go run ./examples/lockelision
package main

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/tm"
	"repro/internal/txlib"
)

const (
	threads = 8
	opsPer  = 150
	buckets = 1 << 8
)

func main() {
	elidedCycles, st := run(harness.SLE)
	lockedCycles, _ := run(harness.GlobalLock)
	fmt.Printf("coarse-locked hash table, %d threads × %d ops\n\n", threads, opsPer)
	fmt.Printf("  global lock:           %8d cycles\n", lockedCycles)
	fmt.Printf("  with lock elision:     %8d cycles  (%.1f× faster)\n",
		elidedCycles, float64(lockedCycles)/float64(elidedCycles))
	fmt.Printf("\n  elided: %d   took the lock: %d   speculative retries: %d\n",
		st.HWCommits, st.SWCommits, st.HWRetries)
	fmt.Println("\nSame lock, same program — the critical sections that never")
	fmt.Println("conflicted never serialized.")
}

func run(kind harness.SystemKind) (uint64, tm.Stats) {
	m := machine.New(machine.DefaultParams(threads))
	sys := harness.Build(kind, m, harness.DefaultOptions())
	arena := txlib.NewArena(m, nil, 1<<22)
	d := txlib.Direct{M: m}
	table := txlib.NewHash(d, arena, buckets)

	arenas := make([]*txlib.Arena, threads)
	for i := range arenas {
		arenas[i] = txlib.NewArena(m, nil, 1<<20)
	}
	var ws []func(*machine.Proc)
	for i := 0; i < threads; i++ {
		ex := sys.Exec(m.Proc(i))
		tid := i
		ws = append(ws, func(p *machine.Proc) {
			r := p.Rand()
			for n := 0; n < opsPer; n++ {
				key := uint64(tid*opsPer + n) // disjoint keys: elision-friendly
				ex.Atomic(func(tx tm.Tx) {
					table.Insert(tx, arenas[tid], key, key)
				})
				p.Elapse(uint64(20 + r.Intn(60)))
			}
		})
	}
	m.Run(ws)
	if got := table.Len(d); got != threads*opsPer {
		panic(fmt.Sprintf("table has %d entries, want %d", got, threads*opsPer))
	}
	return m.Cycles(), tm.StatsOf(&m.Count)
}
