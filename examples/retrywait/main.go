// Retrywait example: transactional waiting (the retry primitive of
// Section 6). A bounded txlib.Queue in simulated memory connects
// producers and consumers; a consumer finding the queue empty (or a
// producer finding it full) retries inside the transaction — under the
// UFO hybrid this fails over to the software TM, converts held write
// entries to reads, and deschedules the processor until a committing
// writer wakes it. No polling, no lost wakeups. Run with:
//
//	go run ./examples/retrywait
package main

import (
	"fmt"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/tm"
	"repro/internal/txlib"
	"repro/internal/ustm"
)

func main() {
	const items = 200
	m := machine.New(machine.DefaultParams(4))
	sys := core.New(m, ustm.DefaultConfig(), core.Policy{}, cm.KindExponential)
	arena := txlib.NewArena(m, nil, 1<<12)
	q := txlib.NewQueue(txlib.Direct{M: m}, arena, 4) // tiny: both sides must wait

	var consumed [2][]uint64
	var delivered [2]int
	workloads := []func(*machine.Proc){
		producer(sys, m, 0, q, 1, items/2),
		producer(sys, m, 1, q, items/2+1, items),
		consumer(sys, m, 2, q, items/2, &consumed[0], &delivered[0]),
		consumer(sys, m, 3, q, items/2, &consumed[1], &delivered[1]),
	}
	m.Run(workloads)

	seen := map[uint64]bool{}
	for _, c := range consumed {
		for _, v := range c {
			if seen[v] {
				panic(fmt.Sprintf("value %d consumed twice", v))
			}
			seen[v] = true
		}
	}
	if len(seen) != items {
		panic(fmt.Sprintf("consumed %d distinct items, want %d", len(seen), items))
	}
	fmt.Printf("moved %d items through a %d-slot transactional queue\n", items, q.Cap())
	fmt.Printf("deliveries confirmed by OnCommit: %d + %d\n", delivered[0], delivered[1])
	st := tm.StatsOf(&m.Count)
	fmt.Printf("stats: %v\n", &st)
	fmt.Printf("retry suspensions: %d (each one a descheduled transaction,\n", st.Retries)
	fmt.Println("woken by the committing writer — not a poll loop)")
}

func producer(sys *core.System, m *machine.Machine, proc int, q txlib.Queue, lo, hi int) func(*machine.Proc) {
	ex := sys.Exec(m.Proc(proc))
	return func(p *machine.Proc) {
		for v := lo; v <= hi; v++ {
			val := uint64(v)
			ex.Atomic(func(tx tm.Tx) { q.Push(tx, val) })
			p.Elapse(uint64(30 + p.Rand().Intn(80)))
		}
	}
}

func consumer(sys *core.System, m *machine.Machine, proc int, q txlib.Queue, n int, out *[]uint64, delivered *int) func(*machine.Proc) {
	ex := sys.Exec(m.Proc(proc))
	return func(p *machine.Proc) {
		for i := 0; i < n; i++ {
			var v uint64
			ex.Atomic(func(tx tm.Tx) {
				v = q.Pop(tx)
				// Side effects (an ack, a log write) defer until the pop
				// is durable — the Section 6 deferral mechanism.
				tx.OnCommit(func() { *delivered++ })
			})
			*out = append(*out, v)
			p.Elapse(uint64(30 + p.Rand().Intn(80)))
		}
	}
}
