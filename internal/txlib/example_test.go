package txlib_test

import (
	"fmt"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/tm"
	"repro/internal/txlib"
	"repro/internal/ustm"
)

// ExampleTree builds a map in simulated memory and uses it both during
// setup (via the zero-cost Direct accessor) and inside a transaction.
func ExampleTree() {
	m := machine.New(machine.DefaultParams(1))
	sys := core.New(m, ustm.DefaultConfig(), core.Policy{}, cm.KindExponential)
	arena := txlib.NewArena(m, nil, 1<<16)
	d := txlib.Direct{M: m}

	tree := txlib.NewTree(d, arena)
	for _, k := range []uint64{30, 10, 20} {
		tree.Insert(d, arena, k, k*k)
	}

	ex := sys.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			if v, ok := tree.Get(tx, 20); ok {
				tree.Set(tx, arena, 40, v+1)
			}
		})
	}})

	v, _ := tree.Get(d, 40)
	n := 0
	tree.ForEach(d, func(_, _ uint64) { n++ })
	fmt.Printf("len=%d tree[40]=%d\n", n, v)
	// Output: len=4 tree[40]=401
}

// ExampleQueue moves values through a transactional bounded queue.
func ExampleQueue() {
	m := machine.New(machine.DefaultParams(2))
	sys := core.New(m, ustm.DefaultConfig(), core.Policy{}, cm.KindExponential)
	arena := txlib.NewArena(m, nil, 1<<12)
	q := txlib.NewQueue(txlib.Direct{M: m}, arena, 2)

	ex0, ex1 := sys.Exec(m.Proc(0)), sys.Exec(m.Proc(1))
	var sum uint64
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			for v := uint64(1); v <= 5; v++ {
				val := v
				ex0.Atomic(func(tx tm.Tx) { q.Push(tx, val) }) // waits when full
			}
		},
		func(p *machine.Proc) {
			for i := 0; i < 5; i++ {
				var v uint64
				ex1.Atomic(func(tx tm.Tx) { v = q.Pop(tx) }) // waits when empty
				sum += v
			}
		},
	})
	fmt.Println("sum:", sum)
	// Output: sum: 15
}
