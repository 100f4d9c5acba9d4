package stamp

import (
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tm"
)

// Failover is the Section 5.3 microbenchmark: transactions touch only
// thread-private lines (so they never conflict) but fail over to software
// at a prescribed random rate, isolating each hybrid's cost of software
// execution from contention effects. The failover is forced with a
// transactional syscall marker, which every hybrid must run in software;
// the coin-flip check itself is charged to every system, matching the
// paper's note that the forcing code costs all configurations alike.
type Failover struct {
	TasksPerThread int
	// RatePct is the percentage of transactions forced to software.
	RatePct int
	Seed    uint64

	threads int
	bases   []uint64
	done    []uint64 // per-thread completed-task counts (validation)
}

const (
	// FailoverLinesPerTx is how many private lines a transaction
	// increments.
	FailoverLinesPerTx = 6
	// FailoverCheckCycles is the cost of the forced-failover coin flip
	// inside each transaction.
	FailoverCheckCycles = 12
	// FailoverWorkCycles is in-transaction compute, diluting per-access
	// overheads the way real transaction bodies do.
	FailoverWorkCycles = 300
)

// NewFailover returns the microbenchmark at the given failover rate.
func NewFailover(tasksPerThread, ratePct int) *Failover {
	return &Failover{TasksPerThread: tasksPerThread, RatePct: ratePct, Seed: 41}
}

// Init implements Workload.
func (f *Failover) Init(m *machine.Machine, threads int) {
	f.threads = threads
	f.bases = make([]uint64, threads)
	for i := range f.bases {
		// Thread-private working sets, line-disjoint.
		f.bases[i] = m.Mem.Sbrk(FailoverLinesPerTx * mem.LineBytes)
	}
	f.done = make([]uint64, threads)
}

// Thread implements Workload.
func (f *Failover) Thread(i int, ex tm.Exec) {
	r := sim.NewRand(f.Seed*7_368_787 + uint64(i))
	base := f.bases[i]
	for task := 0; task < f.TasksPerThread; task++ {
		force := r.Intn(100) < f.RatePct
		ex.Atomic(func(tx tm.Tx) {
			ex.Proc().Elapse(FailoverCheckCycles) // the forced-failover check
			if force {
				tx.Syscall()
			}
			ex.Proc().Elapse(FailoverWorkCycles)
			for j := 0; j < FailoverLinesPerTx; j++ {
				a := base + uint64(j)*mem.LineBytes
				tx.Store(a, tx.Load(a)+1)
			}
		})
		ex.Proc().Elapse(uint64(20 + r.Intn(40)))
	}
	f.done[i] = uint64(f.TasksPerThread)
}

// Validate implements Workload: every private line must have been
// incremented exactly TasksPerThread times.
func (f *Failover) Validate(m *machine.Machine) error {
	for i := 0; i < f.threads; i++ {
		for j := 0; j < FailoverLinesPerTx; j++ {
			a := f.bases[i] + uint64(j)*mem.LineBytes
			if got := m.Mem.Read64(a); got != uint64(f.TasksPerThread) {
				return validErr("failover", "thread %d line %d = %d, want %d", i, j, got, f.TasksPerThread)
			}
		}
	}
	return nil
}
