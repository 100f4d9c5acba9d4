package core_test

import (
	"fmt"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/tm"
	"repro/internal/ustm"
)

// Example shows the hybrid's two execution paths: a small transaction
// commits in hardware; a transaction containing a system call fails over
// to the strongly-atomic software TM. Runs are deterministic.
func Example() {
	m := machine.New(machine.DefaultParams(1))
	sys := core.New(m, ustm.DefaultConfig(), core.Policy{}, cm.KindExponential)
	addr := m.Mem.Sbrk(64)

	ex := sys.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) { // hardware fast path
			tx.Store(addr, tx.Load(addr)+1)
		})
		ex.Atomic(func(tx tm.Tx) { // syscall: software fallback
			tx.Syscall()
			tx.Store(addr, tx.Load(addr)+1)
		})
	}})

	st := sys.Stats()
	fmt.Printf("value=%d hw=%d sw=%d failovers=%d\n",
		m.Mem.Read64(addr), st.HWCommits, st.SWCommits, st.Failovers)
	// Output: value=2 hw=1 sw=1 failovers=1
}
