// Quickstart: build a simulated 4-processor machine, create the UFO
// hybrid TM, and run concurrent bank transfers — small transactions
// commit in hardware; an oversized audit transaction fails over to the
// strongly-atomic software TM. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/tm"
	"repro/internal/ustm"
)

func main() {
	const procs = 4
	const accounts = 64
	const initial = 1000

	// 1. Build the simulated machine and the hybrid TM on top of it.
	m := machine.New(machine.DefaultParams(procs))
	sys := core.New(m, ustm.DefaultConfig(), core.Policy{}, cm.KindExponential)

	// 2. Lay out shared state in simulated memory: one line per account.
	base := m.Mem.Sbrk(accounts * 64)
	for i := uint64(0); i < accounts; i++ {
		m.Mem.Write64(base+i*64, initial)
	}
	account := func(i int) uint64 { return base + uint64(i)*64 }

	// 3. Run one workload per simulated processor. Each thread makes
	// random transfers; thread 0 also audits the books in one large
	// transaction that cannot fit in the L1 and so runs in software.
	var audited uint64
	workloads := make([]func(*machine.Proc), procs)
	for i := 0; i < procs; i++ {
		ex := sys.Exec(m.Proc(i))
		tid := i
		workloads[i] = func(p *machine.Proc) {
			r := p.Rand()
			for n := 0; n < 200; n++ {
				from, to := r.Intn(accounts), r.Intn(accounts)
				amount := uint64(r.Intn(100))
				ex.Atomic(func(tx tm.Tx) {
					balance := tx.Load(account(from))
					if balance < amount {
						return
					}
					tx.Store(account(from), balance-amount)
					tx.Store(account(to), tx.Load(account(to))+amount)
				})
				p.Elapse(uint64(50 + r.Intn(200))) // think time
			}
			if tid == 0 {
				// The audit reads every account atomically. Its footprint
				// spans 64 lines plus metadata — a candidate for overflow
				// — and if hardware can't hold it, the hybrid transparently
				// fails over to the software TM.
				ex.Atomic(func(tx tm.Tx) {
					var sum uint64
					for a := 0; a < accounts; a++ {
						sum += tx.Load(account(a))
					}
					audited = sum
				})
			}
		}
	}
	m.Run(workloads)

	// 4. Report. The audit must see a conserved total, and the stats show
	// the hardware/software split.
	var finalTotal uint64
	for i := 0; i < accounts; i++ {
		finalTotal += m.Mem.Read64(account(i))
	}
	fmt.Printf("audited total:   %d (expected %d)\n", audited, accounts*initial)
	fmt.Printf("final total:     %d\n", finalTotal)
	fmt.Printf("simulated time:  %d cycles on %d processors\n", m.Cycles(), procs)
	st := tm.StatsOf(&m.Count)
	fmt.Printf("tx stats:        %v\n", &st)
	fmt.Printf("hw aborts:       conflict=%d overflow=%d ufo-kill=%d\n",
		m.Count.HWAbortsByReason[machine.AbortConflict],
		m.Count.HWAbortsByReason[machine.AbortOverflow],
		m.Count.HWAbortsByReason[machine.AbortUFOKill])
	if audited != accounts*initial || finalTotal != accounts*initial {
		panic("quickstart: money was created or destroyed")
	}
	fmt.Println("OK: atomicity held across hardware and software transactions")
}
