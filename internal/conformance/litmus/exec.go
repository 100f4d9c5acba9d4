package litmus

import (
	"fmt"
	"sort"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/tmtest"
)

// RunResult is one program execution under one schedule: the final
// state, the committed-transaction history, each non-transactional
// operation (and each effect's store) as a single-op pseudo-record in
// execution order (for the serializability checks), and the system's
// counters. A panic anywhere in the run lands in Err instead of crashing
// the sweep.
type RunResult struct {
	State     State
	Committed []tmtest.TxRecord
	NT        []tmtest.TxRecord
	Stats     tm.Stats
	Err       error

	ntAt []int // per NT record, how many transactions had committed before it
}

// AtomicHistory is the extended history for the serializable-only
// check: committed transactions plus every non-transactional operation
// as its own atomic unit. A system passes when some single serial order
// of all of them explains every observation (thread program order is
// deliberately not required — see ClassSerializable).
func (r RunResult) AtomicHistory() []tmtest.TxRecord {
	return r.history(func(tmtest.TxRecord) bool { return true })
}

// WeakHistory is the history for the weak check: committed transactions
// plus non-transactional writes only. Non-transactional reads are
// unconstrained — a weakly-atomic system may let them observe
// uncommitted eager state — but transaction-vs-transaction isolation
// must still hold.
func (r RunResult) WeakHistory() []tmtest.TxRecord {
	return r.history(func(rec tmtest.TxRecord) bool { return len(rec.Writes) > 0 })
}

// history lists the committed transactions and the NT records keep
// selects in the order they happened, which is the order the
// serializability search tries first: a system whose real-time order is
// a serial order passes without the search backtracking.
func (r RunResult) history(keep func(tmtest.TxRecord) bool) []tmtest.TxRecord {
	h := make([]tmtest.TxRecord, 0, len(r.Committed)+len(r.NT))
	j := 0
	for i := 0; i <= len(r.Committed); i++ {
		for ; j < len(r.NT) && r.ntAt[j] <= i; j++ {
			if keep(r.NT[j]) {
				h = append(h, r.NT[j])
			}
		}
		if i < len(r.Committed) {
			h = append(h, r.Committed[i])
		}
	}
	return h
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
	rec := tmtest.NewRecorder(sys)
	base := m.Mem.Sbrk(uint64(p.Vars) * 64) // one line per variable
	addr := func(v int) uint64 { return base + uint64(v)*64 }

	times := sch.slotTimes(p.OpCounts())
	regs := make([][]uint64, nthreads)

	// note records an NT pseudo-record after committed transactions.
	note := func(r tmtest.TxRecord, committed int) {
		res.NT = append(res.NT, r)
		res.ntAt = append(res.ntAt, committed)
	}
	ntWrite := func(ex tm.Exec, op Op, committed int) {
		ex.Store(addr(op.Var), op.Val)
		note(tmtest.TxRecord{
			Proc:   ex.Proc().ID(),
			Writes: []tmtest.Access{{Addr: addr(op.Var), Val: op.Val}},
		}, committed)
	}
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
						// The recorder appends the committing transaction
						// when Atomic returns, after its effects.
						tx.OnCommit(func() { ntWrite(ex, op, len(rec.History)+1) })
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
					v := ex.Load(addr(op.Var))
					regs[ti] = append(regs[ti], v)
					note(tmtest.TxRecord{
						Proc:  proc.ID(),
						Reads: []tmtest.Access{{Addr: addr(op.Var), Val: v}},
					}, len(rec.History))
				case OpWrite:
					ntWrite(ex, op, len(rec.History))
				}
				opIdx++
			}
		}
	}

	var ws []func(*machine.Proc)
	if len(m.Procs()) == 1 {
		ex := rec.Exec(m.Proc(0))
		ws = []func(*machine.Proc){func(proc *machine.Proc) {
			for ti := 0; ti < nthreads; ti++ {
				threadBody(ti, ex, proc)
			}
		}}
	} else {
		for ti := 0; ti < nthreads; ti++ {
			ti := ti
			ex := rec.Exec(m.Proc(ti))
			ws = append(ws, func(proc *machine.Proc) { threadBody(ti, ex, proc) })
		}
	}
	m.Run(ws)

	res.State = State{Mem: make([]uint64, p.Vars), Regs: regs}
	for v := 0; v < p.Vars; v++ {
		res.State.Mem[v] = m.Mem.Read64(addr(v))
	}
	res.Committed = rec.History
	res.Stats = *sys.Stats()
	return res
}

// SweepResult aggregates one (program, system) cell over the whole
// schedule space.
type SweepResult struct {
	// Observed is the set of distinct final states seen.
	Observed *OutcomeSet
	// Extras are observed outcome keys outside the oracle set (sorted).
	// Non-empty Extras is exactly a strong-atomicity violation.
	Extras []string
	// Witnessed are the Expect.Forbidden conditions (by Cond.Key) that
	// matched at least one observed state (sorted).
	Witnessed []string
	// StrongOK, AtomicOK, WeakOK are the three class checks, each over
	// every run of the sweep. A program with no oracle has StrongOK equal
	// to AtomicOK: a strong system is held to the serializable check.
	StrongOK bool
	AtomicOK bool
	WeakOK   bool
	// Errs collects distinct run errors (a run that panics fails the
	// sweep but not the process).
	Errs []string
	// Schedules is the number of (order, gap) pairs executed.
	Schedules int
	// SWCommits sums the runs' software commits.
	SWCommits uint64
}

// Check returns whether the sweep satisfies the named class's guarantee.
func (s SweepResult) Check(c Class) bool {
	if len(s.Errs) > 0 {
		return false
	}
	switch c {
	case ClassStrong:
		return s.StrongOK
	case ClassSerializable:
		return s.AtomicOK
	default:
		return s.WeakOK
	}
}

// Sweep executes p on system under every (order, gap) schedule, each on
// a machine built over arena, and aggregates outcomes and checks against
// the oracle (nil if p has none).
func Sweep(arena *machine.Arena, system harness.SystemKind, p *Program, oracle *OutcomeSet, orders [][]int, gaps []uint64) SweepResult {
	res := SweepResult{
		Observed: NewOutcomeSet(),
		StrongOK: true,
		AtomicOK: true,
		WeakOK:   true,
	}
	extras := map[string]bool{}
	witnessed := map[string]bool{}
	errs := map[string]bool{}
	for _, order := range orders {
		for _, gap := range gaps {
			res.Schedules++
			run := Execute(arena, system, p, Schedule{Order: order, Gap: gap})
			if run.Err != nil {
				errs[run.Err.Error()] = true
				continue
			}
			res.SWCommits += run.Stats.SWCommits
			res.Observed.Add(run.State)
			key := run.State.Key()
			if oracle != nil && !oracle.Has(key) {
				res.StrongOK = false
				extras[key] = true
			}
			for _, cond := range p.Expect.Forbidden {
				if cond.Matches(run.State) {
					witnessed[cond.Key()] = true
				}
			}
			if tmtest.CheckSerializable(run.AtomicHistory(), nil) != nil {
				res.AtomicOK = false
				res.StrongOK = res.StrongOK && oracle != nil
			}
			if tmtest.CheckSerializable(run.WeakHistory(), nil) != nil {
				res.WeakOK = false
			}
		}
	}
	res.Extras = sortedKeys(extras)
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
