package litmus

import (
	"fmt"
	"sort"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/tmtest"
)

// RunResult is one program execution under one schedule: the final
// state, the recorded history and the system's counters. A panic
// anywhere in the run lands in Err instead of crashing the sweep.
type RunResult struct {
	State   State
	History tmtest.History
	Stats   tm.Stats
	Err     error
}

// Execute runs p on system under sch, on a machine built over arena
// (harness.Runner.Each's rule: the machine is released once its final
// state is read, or once its run has panicked or halted). The
// otable-backed systems get a 4096-row table: small enough that the
// thousands of machines a sweep builds stay cheap, large enough that a
// program's few lines never alias rows.
//
// Every operation is pinned to its schedule slot's absolute time with
// Proc.ElapseUntil, so the run is a pure function of (system, program,
// schedule): the engine's determinism does the rest. Aborted transaction
// attempts re-execute with their slot times already in the past, so
// retries run back to back — only the first attempt is schedule-shaped,
// which is exactly what a litmus test wants (the anomaly window is the
// first attempt; convergence after an abort just has to terminate).
func Execute(arena *machine.Arena, system harness.SystemKind, p *Program, sch Schedule) (res RunResult) {
	procs := len(p.Threads)
	if system == harness.Sequential {
		// The sequential baseline is single-processor by definition; its
		// threads run back to back and the schedule degenerates.
		procs = 1
	}
	params := machine.DefaultParams(procs)
	params.MemBytes = 1 << 20
	params.Quantum = 0 // no timer interrupts: the schedule is the only control flow
	params.MaxSteps = 5_000_000
	m := arena.New(params)
	defer m.Release()
	if halt := sim.Catch(func() { res = run(m, system, p, sch) }); halt != nil {
		res.Err = fmt.Errorf("litmus %s on %s: %w", p.Name, system, halt)
	}
	return res
}

// run is Execute's run on m, which has a processor per thread of p or one.
func run(m *machine.Machine, system harness.SystemKind, p *Program, sch Schedule) (res RunResult) {
	nthreads := len(p.Threads)
	opt := harness.DefaultOptions()
	opt.OTableRows = 1 << 12
	sys := harness.Build(system, m, opt)
	rec := tmtest.NewRecorder(m, sys)
	base := m.Mem.Sbrk(uint64(p.Vars) * mem.LineBytes) // one line per variable
	addr := func(v int) uint64 { return base + uint64(v)*mem.LineBytes }

	times := sch.slotTimes(p.OpCounts())
	regs := make([][]uint64, nthreads)

	threadBody := func(ti int, ex tm.Exec, proc *machine.Proc) {
		opIdx := 0
		for _, st := range p.Threads[ti].Steps {
			if st.Tx {
				ops, start := st.Ops, opIdx
				var tmp []uint64
				fired := make([]bool, len(ops)) // an abort fires once per Atomic call
				var do func(tx tm.Tx, oi int) int
				// do runs ops[oi] (a whole nest, if it opens one) and
				// returns the index of the op after it.
				do = func(tx tm.Tx, oi int) int {
					op := ops[oi]
					proc.ElapseUntil(times[ti][start+oi])
					switch op.Kind {
					case OpRead, OpGuard:
						v := tx.Load(addr(op.Var))
						tmp = append(tmp, v)
						if op.Kind == OpGuard && v == 0 {
							tx.Retry()
						}
					case OpWrite:
						tx.Store(addr(op.Var), op.Val)
					case OpSyscall:
						tx.Syscall()
					case OpEffect:
						tx.OnCommit(func() { ex.Store(addr(op.Var), op.Val) })
					case OpAbort, OpUnnest:
						if (op.Kind == OpAbort || op.Val != 0) && !fired[oi] {
							fired[oi] = true
							tx.Abort()
						}
					case OpNest:
						end := oi + 1
						for ops[end].Kind != OpUnnest {
							end++
						}
						tx.Nested(func() {
							for i := oi + 1; i <= end; {
								i = do(tx, i)
							}
						})
						return end + 1
					}
					return oi + 1
				}
				ex.Atomic(func(tx tm.Tx) {
					tmp = tmp[:0] // aborted attempts re-execute; keep the last
					for oi := 0; oi < len(ops); {
						oi = do(tx, oi)
					}
				})
				regs[ti] = append(regs[ti], tmp...)
				opIdx += len(ops)
			} else {
				op := st.Ops[0]
				proc.ElapseUntil(times[ti][opIdx])
				switch op.Kind {
				case OpRead:
					regs[ti] = append(regs[ti], ex.Load(addr(op.Var)))
				case OpWrite:
					ex.Store(addr(op.Var), op.Val)
				}
				opIdx++
			}
		}
	}

	// Processor pi runs threads pi, pi+P, …: its own, or all of them.
	ws := make([]func(*machine.Proc), len(m.Procs()))
	for pi := range ws {
		ex := rec.Exec(m.Proc(pi))
		ws[pi] = func(proc *machine.Proc) {
			for ti := pi; ti < nthreads; ti += len(ws) {
				threadBody(ti, ex, proc)
			}
		}
	}
	m.Run(ws)

	res.State = State{Mem: make([]uint64, p.Vars), Regs: regs}
	for v := 0; v < p.Vars; v++ {
		res.State.Mem[v] = m.Mem.Read64(addr(v))
	}
	res.History = rec.History()
	res.Stats = *sys.Stats()
	return res
}

// SweepResult aggregates one (program, system) cell over the whole
// schedule space.
type SweepResult struct {
	// Observed is the set of distinct final states seen.
	Observed *OutcomeSet
	// Consistent is the set of final states of the runs that pass the
	// strong check: all inside the oracle, if the check is sound.
	Consistent *OutcomeSet
	// Witnessed are the Expect.Forbidden conditions (by Cond.Key) that
	// matched at least one observed state (sorted).
	Witnessed []string
	// StrongOK, AtomicOK, WeakOK are the three class checks
	// (tmtest.Check), each over every run of the sweep.
	StrongOK bool
	AtomicOK bool
	WeakOK   bool
	// Errs collects distinct run errors (a run that panics fails the
	// sweep but not the process).
	Errs []string
	// SWCommits sums the runs' software commits.
	SWCommits uint64
}

// Check returns whether the sweep satisfies the named class's guarantee.
func (s SweepResult) Check(c tmtest.Class) bool {
	ok := map[tmtest.Class]bool{tmtest.Strong: s.StrongOK, tmtest.Serializable: s.AtomicOK, tmtest.Weak: s.WeakOK}
	return len(s.Errs) == 0 && ok[c]
}

// Sweep executes p on system under every (order, gap) schedule, each on
// a machine built over arena, and checks every run's history at each
// class.
func Sweep(arena *machine.Arena, system harness.SystemKind, p *Program, orders [][]int, gaps []uint64) SweepResult {
	res := SweepResult{
		Observed:   NewOutcomeSet(),
		Consistent: NewOutcomeSet(),
		StrongOK:   true,
		AtomicOK:   true,
		WeakOK:     true,
	}
	witnessed := map[string]bool{}
	errs := map[string]bool{}
	for _, order := range orders {
		for _, gap := range gaps {
			run := Execute(arena, system, p, Schedule{Order: order, Gap: gap})
			if run.Err != nil {
				errs[run.Err.Error()] = true
				continue
			}
			res.SWCommits += run.Stats.SWCommits
			res.Observed.Add(run.State)
			for _, cond := range p.Expect.Forbidden {
				if cond.Matches(run.State) {
					witnessed[cond.Key()] = true
				}
			}
			// A run that passes a class passes every class below it.
			switch {
			case tmtest.Check(run.History, tmtest.Strong) == nil:
				res.Consistent.Add(run.State)
			case tmtest.Check(run.History, tmtest.Serializable) == nil:
				res.StrongOK = false
			default:
				res.StrongOK, res.AtomicOK = false, false
				res.WeakOK = res.WeakOK && tmtest.Check(run.History, tmtest.Weak) == nil
			}
		}
	}
	res.Witnessed = sortedKeys(witnessed)
	res.Errs = sortedKeys(errs)
	return res
}

func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
