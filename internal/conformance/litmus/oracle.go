package litmus

// The sequential oracle: the ground-truth outcome set for a strongly
// atomic, serializable, sequentially consistent system. It enumerates
// every interleaving of the program's atomic units — a whole transaction
// is one unit, each non-transactional operation is its own unit, and so
// is each store a committed transaction's effects make — respecting
// program order within each thread, and collects the distinct final
// states: every outcome a strongly-atomic run can end in, which the
// strong check (tmtest.Check) is held to.
//
// The curated and enumerated unit counts are tiny (≤ 4 threads × ≤ 4
// steps), so exhaustive DFS is cheap: the worst curated shape has well
// under 10⁴ interleavings. A decoded program may be far larger; past
// oracleMaxLeaves it has no oracle (Oracle returns nil), and the class
// checks, which need none, judge it alone.

// oracleMaxLeaves bounds the paths Oracle's DFS walks: the unit
// interleavings, doubled for each aborting nest (its two successors).
const oracleMaxLeaves = 1 << 14

// oracleState is the mutable interpreter state threaded through the DFS.
type oracleState struct {
	units   [][]Step
	mem     []uint64
	regs    [][]uint64 // per thread, the reads so far
	stepIdx []int      // next unit per thread
}

// Oracle returns the exact outcome set of p under strong atomicity, or
// nil if its DFS would walk more than oracleMaxLeaves paths.
func Oracle(p *Program) *OutcomeSet {
	st := &oracleState{
		units:   make([][]Step, len(p.Threads)),
		mem:     make([]uint64, p.Vars),
		regs:    make([][]uint64, len(p.Threads)),
		stepIdx: make([]int, len(p.Threads)),
	}
	counts, aborting := make([]int, len(p.Threads)), 0
	for i, th := range p.Threads {
		for _, s := range th.Steps {
			st.units[i] = append(st.units[i], s)
			for _, op := range s.Ops {
				if op.Kind == OpEffect {
					st.units[i] = append(st.units[i], NT(W(op.Var, op.Val)))
				}
				if op.Kind == OpUnnest && op.Val != 0 {
					aborting++
				}
			}
		}
		counts[i] = len(st.units[i])
	}
	if multinomial(counts) > oracleMaxLeaves>>aborting {
		return nil
	}
	out := NewOutcomeSet()
	oracleDFS(st, out)
	return out
}

func oracleDFS(st *oracleState, out *OutcomeSet) {
	done := true
	savedMem := make([]uint64, len(st.mem))
	for ti, units := range st.units {
		if st.stepIdx[ti] >= len(units) {
			continue
		}
		done = false
		step := units[st.stepIdx[ti]]
		copy(savedMem, st.mem)
		savedRead := len(st.regs[ti])
		// One successor per choice of which aborting nests drop their
		// writes (bit i: the i-th).
		aborting := 0
		for _, op := range step.Ops {
			if op.Kind == OpUnnest && op.Val != 0 {
				aborting++
			}
		}
		for drop := 0; drop < 1<<aborting; drop++ {
			if st.apply(ti, step, drop) {
				st.stepIdx[ti]++
				oracleDFS(st, out)
				st.stepIdx[ti]--
			}
			st.regs[ti] = st.regs[ti][:savedRead]
			copy(st.mem, savedMem)
		}
	}
	if done {
		out.Add(State{Mem: st.mem, Regs: st.regs})
	}
}

// apply runs one unit of thread ti, dropping the writes of the aborting
// nests drop selects. It reports false if a guard disables the unit.
func (st *oracleState) apply(ti int, step Step, drop int) bool {
	var atNest []uint64
	for _, op := range step.Ops {
		switch op.Kind {
		case OpRead, OpGuard:
			if op.Kind == OpGuard && st.mem[op.Var] == 0 {
				return false
			}
			st.regs[ti] = append(st.regs[ti], st.mem[op.Var])
		case OpWrite:
			st.mem[op.Var] = op.Val
		case OpNest:
			atNest = append(atNest[:0], st.mem...)
		case OpUnnest:
			if op.Val != 0 {
				if drop&1 != 0 {
					copy(st.mem, atNest)
				}
				drop >>= 1
			}
		}
		// Fence, syscall, abort and effect change nothing here.
	}
	return true
}
