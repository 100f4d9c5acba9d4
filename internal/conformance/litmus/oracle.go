package litmus

// The sequential oracle: the ground-truth outcome set for a strongly
// atomic, serializable, sequentially consistent system. It replays every
// interleaving of the program's atomic units — a whole transaction is one
// unit, each non-transactional operation is its own unit, and so is each
// store a committed transaction's effects make — in program order within
// each thread: the orders EnumOrders lists over the unit counts, as the
// scheduler's sweep lists them over operation counts. Each order runs
// once per choice of which aborting nests drop their writes, and the
// distinct final states of the runs every guard lets through are every
// outcome a strongly-atomic run can end in, which the strong check
// (tmtest.Check) is held to.
//
// The curated and enumerated unit counts are tiny (≤ 4 threads × ≤ 4
// steps), so exhaustive replay is cheap: the worst curated shape has well
// under 10⁴ interleavings. A decoded program may be far larger; past
// oracleMaxLeaves it has no oracle (Oracle returns nil), and the class
// checks, which need none, judge it alone.

// oracleMaxLeaves bounds the runs Oracle replays: the unit orders,
// doubled for each aborting nest (its two choices).
const oracleMaxLeaves = 1 << 14

// Oracle returns the exact outcome set of p under strong atomicity, or
// nil if it would replay more than oracleMaxLeaves runs.
func Oracle(p *Program) *OutcomeSet {
	units := make([][]Step, len(p.Threads))
	counts, aborting := make([]int, len(p.Threads)), 0
	for i, th := range p.Threads {
		for _, s := range th.Steps {
			units[i] = append(units[i], s)
			for _, op := range s.Ops {
				if op.Kind == OpEffect {
					units[i] = append(units[i], NT(W(op.Var, op.Val)))
				}
				if op.Kind == OpUnnest && op.Val != 0 {
					aborting++
				}
			}
		}
		counts[i] = len(units[i])
	}
	if multinomial(counts) > oracleMaxLeaves>>aborting {
		return nil
	}
	out := NewOutcomeSet()
	orders, _ := EnumOrders(counts, 0, 0)
	mem := make([]uint64, p.Vars)
	next := make([]int, len(units))
	for _, order := range orders {
		for drop := 0; drop < 1<<aborting; drop++ {
			clear(mem)
			clear(next)
			regs := make([][]uint64, len(units))
			if replay(units, order, drop, mem, next, regs) {
				out.Add(State{Mem: mem, Regs: regs})
			}
		}
	}
	return out
}

// replay runs units in order, each thread's next unit at each of its
// slots, dropping the writes of the aborting nests drop selects (bit i:
// the i-th to run). It reports false if a guard disables a unit.
func replay(units [][]Step, order []int, drop int, mem []uint64, next []int, regs [][]uint64) bool {
	var atNest []uint64
	for _, ti := range order {
		step := units[ti][next[ti]]
		next[ti]++
		for _, op := range step.Ops {
			switch op.Kind {
			case OpRead, OpGuard:
				if op.Kind == OpGuard && mem[op.Var] == 0 {
					return false
				}
				regs[ti] = append(regs[ti], mem[op.Var])
			case OpWrite:
				mem[op.Var] = op.Val
			case OpNest:
				atNest = append(atNest[:0], mem...)
			case OpUnnest:
				if op.Val != 0 {
					if drop&1 != 0 {
						copy(mem, atNest)
					}
					drop >>= 1
				}
			}
			// Fence, syscall, abort and effect change nothing here.
		}
	}
	return true
}
