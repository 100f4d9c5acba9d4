// Package stamp re-implements the STAMP benchmarks the paper evaluates —
// kmeans, vacation, and genome — against the generic tm.Exec interface,
// plus the software-failover microbenchmark of §5.3. Each workload
// fixes its total work independently of the thread count (work is divided
// among threads), so speedups against the sequential baseline are
// well-defined, and each workload validates a global invariant after the
// run so that every cross-system comparison is also a correctness check.
package stamp

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
)

// Workload is a benchmark program runnable on any TM system.
type Workload interface {
	// Init builds the shared state in simulated memory (zero simulated
	// cost; it happens before timing starts). threads is the number of
	// worker threads the run will use.
	Init(m *machine.Machine, threads int)
	// Thread runs thread i's share of the work on the given execution
	// context.
	Thread(i int, ex tm.Exec)
	// Validate checks the workload's global invariant after the run.
	Validate(m *machine.Machine) error
}

// Barrier is a flag-based master-collects phase barrier built entirely
// from non-transactional loads and stores: each arriving thread publishes
// the new generation in its own flag line, thread 0 collects the flags
// and advances the shared generation, and everyone else spins on it.
//
// Deliberately NOT transactional: a transactional arrival whose footprint
// includes the generation word would be killed by every spinner's
// non-transactional poll (strong atomicity makes nonT accesses win) — a
// deterministic livelock under HTMs and a real pitfall of mixing spin
// synchronization with transactions.
type Barrier struct {
	flagBase uint64 // n line-spaced per-thread flags
	genAddr  uint64
	n        int
}

// BarrierSpinCycles is the poll interval while waiting at a Barrier.
const BarrierSpinCycles = 200

// NewBarrier allocates a barrier for n threads; waiters must be the
// processors with IDs 0..n-1.
func NewBarrier(m *machine.Machine, n int) *Barrier {
	return &Barrier{
		flagBase: m.Mem.Sbrk(uint64(n) * mem.LineBytes),
		genAddr:  m.Mem.Sbrk(mem.LineBytes),
		n:        n,
	}
}

func (b *Barrier) flag(i int) uint64 { return b.flagBase + uint64(i)*mem.LineBytes }

// Wait blocks until all n threads have arrived.
func (b *Barrier) Wait(ex tm.Exec) {
	p := ex.Proc()
	id := p.ID()
	gen := ex.Load(b.genAddr)
	ex.Store(b.flag(id), gen+1)
	if id == 0 {
		// Master: collect every flag, then release the generation.
		p.SetNoteN("barrier collect gen", gen)
		for i := 1; i < b.n; i++ {
			for ex.Load(b.flag(i)) != gen+1 {
				p.Elapse(BarrierSpinCycles)
			}
		}
		ex.Store(b.genAddr, gen+1)
	} else {
		p.SetNoteN("barrier spin gen", gen)
		for ex.Load(b.genAddr) == gen {
			p.Elapse(BarrierSpinCycles)
		}
	}
	p.SetNoteN("barrier passed gen", gen)
}

// split returns thread i's half-open share [lo, hi) of total items.
func split(total, threads, i int) (lo, hi int) {
	lo = total * i / threads
	hi = total * (i + 1) / threads
	return lo, hi
}

// validErr builds a formatted validation error.
func validErr(workload, format string, args ...any) error {
	return fmt.Errorf("%s: %s", workload, fmt.Sprintf(format, args...))
}
