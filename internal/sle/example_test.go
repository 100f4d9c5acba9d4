package sle_test

import (
	"fmt"

	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/sle"
	"repro/internal/tm"
)

// Example elides the lock around two disjoint critical sections: both run
// speculatively and neither serializes on the lock.
func Example() {
	m := machine.New(machine.DefaultParams(2))
	s := sle.New(m, cm.KindExponential)
	base := m.Mem.Sbrk(2 * 64)

	e0, e1 := s.Exec(m.Proc(0)), s.Exec(m.Proc(1))
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			e0.Atomic(func(tx tm.Tx) { tx.Store(base, 1) })
		},
		func(p *machine.Proc) {
			e1.Atomic(func(tx tm.Tx) { tx.Store(base+64, 2) })
		},
	})
	st := tm.StatsOf(&m.Count)
	fmt.Printf("elided=%d took the lock=%d\n", st.HWCommits, st.SWCommits)
	// Output: elided=2 took the lock=0
}
