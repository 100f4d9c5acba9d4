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
// state, the committed-transaction history, and each non-transactional
// operation as a single-op pseudo-record (for the serializability
// checks). A panic anywhere in the run lands in Err instead of crashing
// the sweep.
type RunResult struct {
	State     State
	Committed []tmtest.TxRecord
	NT        []tmtest.TxRecord
	Err       error
}

// AtomicHistory is the extended history for the serializable-only
// check: committed transactions plus every non-transactional operation
// as its own atomic unit. A system passes when some single serial order
// of all of them explains every observation (thread program order is
// deliberately not required — see ClassSerializable).
func (r RunResult) AtomicHistory() []tmtest.TxRecord {
	h := make([]tmtest.TxRecord, 0, len(r.Committed)+len(r.NT))
	h = append(h, r.Committed...)
	return append(h, r.NT...)
}

// WeakHistory is the history for the weak check: committed transactions
// plus non-transactional writes only. Non-transactional reads are
// unconstrained — a weakly-atomic system may let them observe
// uncommitted eager state — but transaction-vs-transaction isolation
// must still hold.
func (r RunResult) WeakHistory() []tmtest.TxRecord {
	h := make([]tmtest.TxRecord, 0, len(r.Committed)+len(r.NT))
	h = append(h, r.Committed...)
	for _, rec := range r.NT {
		if len(rec.Writes) > 0 {
			h = append(h, rec)
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
	ntRecs := make([][]tmtest.TxRecord, nthreads)

	threadBody := func(ti int, ex tm.Exec, proc *machine.Proc) {
		opIdx := 0
		for _, st := range p.Threads[ti].Steps {
			if st.Tx {
				ops, start := st.Ops, opIdx
				var tmp []uint64
				ex.Atomic(func(tx tm.Tx) {
					tmp = tmp[:0] // aborted attempts re-execute; keep the last
					for oi, op := range ops {
						proc.ElapseUntil(times[ti][start+oi])
						switch op.Kind {
						case OpRead:
							tmp = append(tmp, tx.Load(addr(op.Var)))
						case OpWrite:
							tx.Store(addr(op.Var), op.Val)
						}
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
					ntRecs[ti] = append(ntRecs[ti], tmtest.TxRecord{
						Proc:  proc.ID(),
						Reads: []tmtest.Access{{Addr: addr(op.Var), Val: v}},
					})
				case OpWrite:
					ex.Store(addr(op.Var), op.Val)
					ntRecs[ti] = append(ntRecs[ti], tmtest.TxRecord{
						Proc:   proc.ID(),
						Writes: []tmtest.Access{{Addr: addr(op.Var), Val: op.Val}},
					})
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
	for _, rs := range ntRecs {
		res.NT = append(res.NT, rs...)
	}
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
	// every run of the sweep.
	StrongOK bool
	AtomicOK bool
	WeakOK   bool
	// Errs collects distinct run errors (a run that panics fails the
	// sweep but not the process).
	Errs []string
	// Schedules is the number of (order, gap) pairs executed.
	Schedules int
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
// the oracle.
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
			res.Observed.Add(run.State)
			key := run.State.Key()
			if !oracle.Has(key) {
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
