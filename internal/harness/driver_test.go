package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/hytm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/norec"
	"repro/internal/phtm"
	"repro/internal/sle"
	"repro/internal/tl2"
	"repro/internal/tm"
	"repro/internal/tmtest"
	"repro/internal/unbounded"
	"repro/internal/ustm"
)

// These tests pin what each system's abort handler does with each abort
// reason, from outside: they drive the systems through tm.Exec only and
// inject aborts at the machine (Proc.AbortHW), so they hold across any
// rewrite of the retry loops behind Atomic.

// driverMachine is a small machine with preemption off, so the only
// aborts are the injected ones.
func driverMachine(procs int) *machine.Machine {
	p := machine.DefaultParams(procs)
	p.MemBytes = 1 << 22
	p.Quantum = 0
	p.MaxSteps = 5_000_000
	return machine.New(p)
}

// hybridCase builds one of the six hardware-first systems. limit is the
// ufo-hybrid's counted-abort limit, Policy.FailoverOnNthConflict (0 =
// never); the other systems' limits are constants.
type hybridCase struct {
	name  string
	build func(m *machine.Machine, limit int, kind cm.Kind) tm.System
}

func driverUSTMConfig() ustm.Config {
	cfg := ustm.DefaultConfig()
	cfg.OTableRows = 1 << 12
	return cfg
}

var hybridCases = []hybridCase{
	{"ufo-hybrid", func(m *machine.Machine, limit int, kind cm.Kind) tm.System {
		return core.New(m, driverUSTMConfig(), core.Policy{FailoverOnNthConflict: limit}, kind)
	}},
	{"hytm", func(m *machine.Machine, _ int, kind cm.Kind) tm.System {
		return hytm.New(m, driverUSTMConfig(), kind)
	}},
	{"phtm", func(m *machine.Machine, _ int, kind cm.Kind) tm.System {
		return phtm.New(m, driverUSTMConfig(), kind)
	}},
	{"hybrid-norec", func(m *machine.Machine, _ int, kind cm.Kind) tm.System {
		return norec.New(m, kind)
	}},
	{"unbounded-htm", func(m *machine.Machine, _ int, kind cm.Kind) tm.System {
		return unbounded.New(m, kind)
	}},
	{"sle", func(m *machine.Machine, _ int, kind cm.Kind) tm.System {
		return sle.New(m, kind)
	}},
}

// buildHybrid builds the named hybridCase.
func buildHybrid(t *testing.T, name string, m *machine.Machine, limit int, kind cm.Kind) tm.System {
	t.Helper()
	for _, hc := range hybridCases {
		if hc.name == name {
			return hc.build(m, limit, kind)
		}
	}
	t.Fatalf("no hybridCase named %s", name)
	return nil
}

// outcome is what one transaction's counters must read after its first
// hardware attempt took one injected abort.
type outcome struct {
	hw, sw, failovers, hwRetries, delays uint64
}

var (
	// fail: the reason is fatal to hardware; the transaction commits in
	// software without a backoff.
	fail = outcome{sw: 1, failovers: 1}
	// retry: re-executed in hardware after one policy backoff.
	retry = outcome{hw: 1, hwRetries: 1, delays: 1}
	// clean: the operation does not abort this system's hardware at all.
	clean = outcome{hw: 1}
	// locked: every attempt aborts, so the transaction takes sle's lock
	// after its Attempts-th, backing off before each of the others.
	locked = outcome{sw: 1, failovers: 1, hwRetries: sle.Attempts - 1, delays: sle.Attempts - 1}
)

// injectedDisposition[system][reason] for aborts injected with
// Proc.AbortHW on the first hardware attempt.
var injectedDisposition = map[string]map[machine.AbortReason]outcome{
	"ufo-hybrid": {
		machine.AbortOverflow: fail, machine.AbortExplicit: fail, machine.AbortInterrupt: retry,
		machine.AbortConflict: retry, machine.AbortSyscall: fail, machine.AbortUFOKill: retry,
		machine.AbortUFOFault: retry, machine.AbortNonTConflict: retry, machine.AbortNesting: fail,
	},
	"hytm": {
		machine.AbortOverflow: fail, machine.AbortExplicit: retry, machine.AbortInterrupt: retry,
		machine.AbortConflict: retry, machine.AbortSyscall: fail, machine.AbortUFOKill: retry,
		machine.AbortUFOFault: retry, machine.AbortNonTConflict: retry, machine.AbortNesting: fail,
	},
	"phtm": {
		machine.AbortOverflow: fail, machine.AbortExplicit: fail, machine.AbortInterrupt: retry,
		machine.AbortConflict: retry, machine.AbortSyscall: fail, machine.AbortUFOKill: retry,
		machine.AbortUFOFault: retry, machine.AbortNonTConflict: retry, machine.AbortNesting: fail,
	},
	"hybrid-norec": {
		machine.AbortOverflow: fail, machine.AbortExplicit: retry, machine.AbortInterrupt: retry,
		machine.AbortConflict: retry, machine.AbortSyscall: fail, machine.AbortUFOKill: retry,
		machine.AbortUFOFault: retry, machine.AbortNonTConflict: retry, machine.AbortNesting: fail,
	},
	"unbounded-htm": {
		machine.AbortOverflow: retry, machine.AbortExplicit: retry, machine.AbortInterrupt: retry,
		machine.AbortConflict: retry, machine.AbortSyscall: retry, machine.AbortUFOKill: retry,
		machine.AbortUFOFault: retry, machine.AbortNonTConflict: retry, machine.AbortNesting: retry,
	},
	"sle": {
		machine.AbortOverflow: retry, machine.AbortExplicit: retry, machine.AbortInterrupt: retry,
		machine.AbortConflict: retry, machine.AbortSyscall: retry, machine.AbortUFOKill: retry,
		machine.AbortUFOFault: retry, machine.AbortNonTConflict: retry, machine.AbortNesting: retry,
	},
}

func checkOutcome(t *testing.T, sys tm.System, m *machine.Machine, want outcome) {
	t.Helper()
	st := tm.StatsOf(&m.Count)
	cs := sys.(cm.Instrumented).CM().Stats()
	got := outcome{
		hw: st.HWCommits, sw: st.SWCommits, failovers: st.Failovers, hwRetries: st.HWRetries, delays: cs.Delays,
	}
	if got != want {
		t.Fatalf("got %+v, want %+v (stats %v)", got, want, st)
	}
}

// runInjected runs one transaction on one processor whose first n
// hardware attempts each take an injected abort for reason.
func runInjected(t *testing.T, sys tm.System, m *machine.Machine, reason machine.AbortReason, n int) {
	t.Helper()
	ex := sys.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		injected := 0
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(0, tx.Load(0)+1)
			if p.HW() != nil && injected < n {
				injected++
				p.AbortHW(reason, -1, 0, false)
				tm.Unwind(reason)
			}
		})
	}})
	if got := m.Mem.Read64(0); got != 1 {
		t.Fatalf("counter = %d, want 1: aborted attempts must leave no trace", got)
	}
}

// TestDispositionMatrixInjected is the Algorithm 3 table, observed: every
// system × every machine.AbortReason, one abort injected on the first
// hardware attempt.
func TestDispositionMatrixInjected(t *testing.T) {
	for _, hc := range hybridCases {
		for r := machine.AbortReason(1); int(r) < machine.NumAbortReasons; r++ {
			t.Run(hc.name+"/"+r.String(), func(t *testing.T) {
				want, ok := injectedDisposition[hc.name][r]
				if !ok {
					t.Fatalf("no expectation for %s/%s", hc.name, r)
				}
				m := driverMachine(1)
				sys := hc.build(m, 0, cm.KindExponential)
				runInjected(t, sys, m, r, 1)
				checkOutcome(t, sys, m, want)
			})
		}
	}
}

// nestPastLimit opens one flattened nest more than BTM holds
// (tm.MaxNesting): the only program that raises AbortNesting.
func nestPastLimit(tx tm.Tx, _ bool) { nest(tx, tm.MaxNesting+1) }

// nest opens depth flattened nests, each inside the last.
func nest(tx tm.Tx, depth int) {
	if depth > 0 {
		tx.Nested(func() { nest(tx, depth-1) })
	}
}

// TestDispositionMatrixNatural reaches the same arms through the tm.Tx
// surface a workload has: a system call, an explicit abort, nesting past
// the hardware limit, and a footprint larger than the L1.
func TestDispositionMatrixNatural(t *testing.T) {
	type op struct {
		name string
		l1   int // L1 lines (0 = default)
		body func(tx tm.Tx, first bool)
		want map[string]outcome
	}
	ops := []op{
		{"syscall", 0, func(tx tm.Tx, _ bool) { tx.Syscall() }, map[string]outcome{
			"ufo-hybrid": fail, "hytm": fail, "phtm": fail, "hybrid-norec": fail, "unbounded-htm": clean,
			"sle": locked,
		}},
		{"explicit", 0, func(tx tm.Tx, first bool) {
			if first {
				tx.Abort()
			}
		}, map[string]outcome{
			"ufo-hybrid": fail, "hytm": retry, "phtm": fail, "hybrid-norec": retry, "unbounded-htm": retry,
			"sle": retry,
		}},
		// The unbounded HTM shares BTM's nesting limit and has nowhere to
		// fail over to, so over-deep nesting livelocks there: not run.
		{"nesting", 0, nestPastLimit, map[string]outcome{
			"ufo-hybrid": fail, "hytm": fail, "phtm": fail, "hybrid-norec": fail, "sle": locked,
		}},
		{"overflow", 8, func(tx tm.Tx, _ bool) {
			for i := uint64(1); i < 32; i++ {
				tx.Store(i*64, i)
			}
		}, map[string]outcome{
			"ufo-hybrid": fail, "hytm": fail, "phtm": fail, "hybrid-norec": fail, "unbounded-htm": clean,
			"sle": locked,
		}},
	}
	for _, hc := range hybridCases {
		for _, o := range ops {
			want, ok := o.want[hc.name]
			if !ok {
				continue
			}
			t.Run(hc.name+"/"+o.name, func(t *testing.T) {
				params := machine.DefaultParams(1)
				params.MemBytes = 1 << 22
				params.Quantum = 0
				params.MaxSteps = 5_000_000
				if o.l1 != 0 {
					params.L1Bytes = o.l1 * 64
					params.L1Ways = 1
				}
				m := machine.New(params)
				sys := hc.build(m, 0, cm.KindExponential)
				ex := sys.Exec(m.Proc(0))
				m.Run([]func(*machine.Proc){func(*machine.Proc) {
					first := true
					ex.Atomic(func(tx tm.Tx) {
						f := first
						first = false
						tx.Store(0, tx.Load(0)+1)
						o.body(tx, f)
					})
				}})
				if got := m.Mem.Read64(0); got != 1 {
					t.Fatalf("counter = %d, want 1", got)
				}
				checkOutcome(t, sys, m, want)
			})
		}
	}
}

// TestEveryAbortReasonIsRaised: every machine.AbortReason is raised by
// some run, so no abort handler classifies a reason that cannot happen.
// Each must be non-zero in some cell of the small-scale sweeps of tmsim
// -experiment all, but nesting: no workload nests tm.MaxNesting deep,
// and its raiser is the natural disposition matrix's nestPastLimit.
func TestEveryAbortReasonIsRaised(t *testing.T) {
	opt := DefaultOptions()
	opt.Params.Seed = 1 // the tmsim -seed default
	var raised [machine.NumAbortReasons]uint64
	r := Parallel(0)
	r.Collect = func(_ Job, res Result) {
		for reason, n := range res.Machine.HWAbortsByReason {
			raised[reason] += n
		}
	}
	sweep := func(_ any, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	sweep(r.Figure5(opt, ScaleSmall))
	sweep(r.Figure6(opt, ScaleSmall))
	sweep(r.Figure7(opt, ScaleSmall))
	sweep(r.Figure8(opt, ScaleSmall))
	sweep(r.Ablations(opt, ScaleSmall))
	sweep(r.Extended(opt, ScaleSmall))
	sweep(r.Footprints(opt, ScaleSmall))
	sweep(r.PolicySweep(opt, ScaleSmall))
	m := driverMachine(1)
	ex := buildHybrid(t, "ufo-hybrid", m, 0, cm.KindExponential).Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(*machine.Proc) {
		ex.Atomic(func(tx tm.Tx) { nestPastLimit(tx, true) })
	}})
	raised[machine.AbortNesting] += m.Count.HWAbortsByReason[machine.AbortNesting]
	for reason := machine.AbortReason(1); int(reason) < machine.NumAbortReasons; reason++ {
		if raised[reason] == 0 {
			t.Errorf("no run raises abort reason %s: raise it or delete it", reason)
		}
	}
}

// TestCountedAbortLimit pins each system's one counted-abort limit: the
// limit-th counted abort fails over without a backoff of its own. The
// ufo-hybrid's, a Policy field, is set to 3; the others are constants.
func TestCountedAbortLimit(t *testing.T) {
	type counted struct {
		system string
		reason machine.AbortReason
		limit  int
	}
	cases := []counted{
		{"ufo-hybrid", machine.AbortConflict, 3},
		{"ufo-hybrid", machine.AbortUFOKill, 3},
		{"ufo-hybrid", machine.AbortUFOFault, 3},
		{"ufo-hybrid", machine.AbortNonTConflict, 3},
		{"hytm", machine.AbortExplicit, hytm.MaxConflictRetries},
		{"hybrid-norec", machine.AbortConflict, norec.MaxHTMRetries},
		{"hybrid-norec", machine.AbortInterrupt, norec.MaxHTMRetries},
		{"hybrid-norec", machine.AbortExplicit, norec.MaxHTMRetries},
	}
	for r := machine.AbortReason(1); int(r) < machine.NumAbortReasons; r++ {
		cases = append(cases, counted{"sle", r, sle.Attempts})
	}
	for _, c := range cases {
		t.Run(c.system+"/"+c.reason.String(), func(t *testing.T) {
			m := driverMachine(1)
			sys := buildHybrid(t, c.system, m, 3, cm.KindExponential)
			runInjected(t, sys, m, c.reason, c.limit+2)
			n := uint64(c.limit - 1)
			checkOutcome(t, sys, m, outcome{sw: 1, failovers: 1, hwRetries: n, delays: n})
		})
	}
	// Uncounted reasons never reach the limit.
	for _, c := range []struct {
		system string
		reason machine.AbortReason
	}{
		{"ufo-hybrid", machine.AbortInterrupt},
		{"hytm", machine.AbortConflict},
	} {
		t.Run(c.system+"/"+c.reason.String()+"/uncounted", func(t *testing.T) {
			m := driverMachine(1)
			sys := buildHybrid(t, c.system, m, 3, cm.KindExponential)
			runInjected(t, sys, m, c.reason, 5)
			checkOutcome(t, sys, m, outcome{hw: 1, hwRetries: 5, delays: 5})
		})
	}
}

// TestEscalationUnderSerialize pins the starvation arm: under the
// serialize policy the K-th consecutive abort (K = cm.DefaultStarveK)
// escalates — hybrids fail over, the unbounded HTM takes the global token
// and commits on the serialized path — and the software-only loops (TL2,
// HybridNOrec's software half) take the token too. HybridNOrec's hardware
// half counts every contention abort against norec.MaxHTMRetries, which
// equals K and is checked first, so there the limit fails the
// transaction over on the K-th abort and the policy never escalates.
func TestEscalationUnderSerialize(t *testing.T) {
	const k = cm.DefaultStarveK
	for _, hc := range hybridCases {
		if hc.name == "sle" {
			continue // its limit, sle.Attempts, takes the lock before the K-th abort
		}
		t.Run(hc.name, func(t *testing.T) {
			m := driverMachine(1)
			sys := hc.build(m, 0, cm.KindSerialize)
			runInjected(t, sys, m, machine.AbortInterrupt, k+2)
			cs := sys.(cm.Instrumented).CM().Stats()
			switch hc.name {
			case "unbounded-htm":
				// Escalated on the K-th abort and every abort after it;
				// the token is acquired once and held to commit.
				checkOutcome(t, sys, m, outcome{hw: 1, hwRetries: k + 2, delays: k - 1})
				if cs.TokenAcquisitions != 1 || cs.StarvationEscalations != 3 {
					t.Fatalf("token grants = %d, escalations = %d, want 1 and 3", cs.TokenAcquisitions, cs.StarvationEscalations)
				}
				return
			case "hybrid-norec":
				checkOutcome(t, sys, m, outcome{sw: 1, failovers: 1, hwRetries: k - 1, delays: k - 1})
				if cs.StarvationEscalations != 0 {
					t.Fatalf("escalations = %d, want 0: the counted limit fires first", cs.StarvationEscalations)
				}
				return
			}
			checkOutcome(t, sys, m, outcome{sw: 1, failovers: 1, hwRetries: k, delays: k - 1})
			if cs.TokenAcquisitions != 0 || cs.StarvationEscalations != 1 {
				t.Fatalf("token grants = %d, escalations = %d, want 0 and 1", cs.TokenAcquisitions, cs.StarvationEscalations)
			}
		})
	}
	// The software-only loops: TL2, and HybridNOrec's software half — a
	// syscall sends the transaction there, where explicit aborts retry
	// until the policy escalates.
	for _, name := range []string{"tl2", "hybrid-norec"} {
		t.Run(name+"/software", func(t *testing.T) {
			m := driverMachine(1)
			var sys tm.System = tl2.New(m, cm.KindSerialize)
			if name != "tl2" {
				sys = buildHybrid(t, name, m, 0, cm.KindSerialize)
			}
			ex := sys.Exec(m.Proc(0))
			m.Run([]func(*machine.Proc){func(*machine.Proc) {
				tries := 0
				ex.Atomic(func(tx tm.Tx) {
					tx.Syscall()
					tx.Store(0, tx.Load(0)+1)
					if tries++; tries <= k+2 {
						tx.Abort()
					}
				})
			}})
			if got := m.Mem.Read64(0); got != 1 {
				t.Fatalf("counter = %d, want 1", got)
			}
			st := tm.StatsOf(&m.Count)
			cs := sys.(cm.Instrumented).CM().Stats()
			if st.SWCommits != 1 || st.SWAborts != k+2 || cs.TokenAcquisitions != 1 || cs.Delays != k-1 {
				t.Fatalf("stats %v, cm %+v: want 1 software commit after %d aborts, %d backoffs, 1 token grant", st, cs, k+2, k-1)
			}
		})
	}
}

// lifeKinds are the lifecycle events TestTxLifeSequences pins.
var lifeKinds = machine.KindSet(
	machine.TraceTxBegin, machine.TraceTxAttempt, machine.TraceTxAbort,
	machine.TraceTxRetryWait, machine.TraceTxBackoff, machine.TraceTxCommit)

// lifeString renders processor 0's lifecycle events, one word each.
func lifeString(events []machine.TraceEvent) string {
	var words []string
	for _, e := range events {
		if e.Proc != 0 {
			continue
		}
		switch e.Kind {
		case machine.TraceTxBegin:
			words = append(words, "Begin")
		case machine.TraceTxAttempt:
			words = append(words, fmt.Sprintf("Attempt(%s)", e.Path))
		case machine.TraceTxAbort:
			words = append(words, fmt.Sprintf("Abort(%s,%s)", e.Path, e.Reason))
		case machine.TraceTxRetryWait:
			words = append(words, "RetryWait")
		case machine.TraceTxBackoff:
			words = append(words, "Backoff")
		case machine.TraceTxCommit:
			words = append(words, fmt.Sprintf("Commit(%s)", e.Path))
		}
	}
	return strings.Join(words, " ")
}

// TestTxLifeSequences pins the order of lifecycle events each system
// emits — what txstats reports and Perfetto spans are built from — for a
// transaction that makes a system call and for one that waits with
// Retry until another processor publishes a flag.
func TestTxLifeSequences(t *testing.T) {
	const flag, out = 0, 512
	syscallTx := func(m *machine.Machine, sys tm.System) []func(*machine.Proc) {
		ex := sys.Exec(m.Proc(0))
		return []func(*machine.Proc){func(*machine.Proc) {
			ex.Atomic(func(tx tm.Tx) {
				tx.Syscall()
				tx.Store(out, 1)
			})
		}}
	}
	retryTx := func(m *machine.Machine, sys tm.System) []func(*machine.Proc) {
		ex0, ex1 := sys.Exec(m.Proc(0)), sys.Exec(m.Proc(1))
		return []func(*machine.Proc){
			func(*machine.Proc) {
				ex0.Atomic(func(tx tm.Tx) {
					if tx.Load(flag) == 0 {
						tx.Retry()
					}
					tx.Store(out, 1)
				})
			},
			func(p *machine.Proc) {
				p.Elapse(3000)
				ex1.Atomic(func(tx tm.Tx) { tx.Store(flag, 1) })
			},
		}
	}
	// starvedTx loses its first K+1 attempts — to an injected interrupt
	// in hardware, to an explicit abort in software — under serialize, so
	// the K-th abort escalates (K = cm.DefaultStarveK).
	const k = cm.DefaultStarveK
	starvedTx := func(m *machine.Machine, sys tm.System) []func(*machine.Proc) {
		ex := sys.Exec(m.Proc(0))
		return []func(*machine.Proc){func(p *machine.Proc) {
			tries := 0
			ex.Atomic(func(tx tm.Tx) {
				tx.Store(out, 1)
				if tries++; tries > k+1 {
					return
				}
				if p.HW() != nil {
					p.AbortHW(machine.AbortInterrupt, -1, 0, false)
					tm.Unwind(machine.AbortInterrupt)
				}
				tx.Abort()
			})
		}}
	}
	// lost is n attempts on path aborted for reason, with a backoff
	// between each and the next.
	lost := func(path, reason string, n int) string {
		a := " Attempt(" + path + ") Abort(" + path + "," + reason + ")"
		return strings.Repeat(a+" Backoff", n-1) + a
	}
	for _, c := range []struct {
		system SystemKind
		tx     string
		want   string
	}{
		{UFOHybrid, "starved", "Begin" + lost("htm", "interrupt", k) + " Attempt(ufo) Abort(ufo,explicit) Attempt(ufo) Commit(ufo)"},
		{HyTM, "starved", "Begin" + lost("htm", "interrupt", k) + " Attempt(sw) Abort(sw,explicit) Attempt(sw) Commit(sw)"},
		{PhTM, "starved", "Begin" + lost("htm", "interrupt", k) + " Attempt(sw) Abort(sw,explicit) Attempt(sw) Commit(sw)"},
		// norec.MaxHTMRetries == K: the counted limit, not the policy, fails it over.
		{HybridNOrec, "starved", "Begin" + lost("htm", "interrupt", k) + " Attempt(sw) Abort(sw,explicit) Backoff Attempt(sw) Commit(sw)"},
		{UnboundedHTM, "starved", "Begin" + lost("htm", "interrupt", k) + " Attempt(fallback) Abort(fallback,interrupt) Attempt(fallback) Commit(fallback)"},
		{TL2, "starved", "Begin" + lost("sw", "explicit", k) + " Attempt(fallback) Abort(fallback,explicit) Attempt(fallback) Commit(fallback)"},
		{UFOHybrid, "syscall", "Begin Attempt(htm) Abort(htm,syscall) Attempt(ufo) Commit(ufo)"},
		{HyTM, "syscall", "Begin Attempt(htm) Abort(htm,syscall) Attempt(sw) Commit(sw)"},
		{PhTM, "syscall", "Begin Attempt(htm) Abort(htm,syscall) Attempt(sw) Commit(sw)"},
		{HybridNOrec, "syscall", "Begin Attempt(htm) Abort(htm,syscall) Attempt(sw) Commit(sw)"},
		{UnboundedHTM, "syscall", "Begin Attempt(htm) Commit(htm)"},
		{TL2, "syscall", "Begin Attempt(sw) Commit(sw)"},
		{USTMUFO, "syscall", "Begin Attempt(ufo) Commit(ufo)"},
		{UFOHybrid, "retry", "Begin Attempt(htm) Abort(htm,explicit) Attempt(ufo) RetryWait Attempt(ufo) Commit(ufo)"},
		{HyTM, "retry", "Begin" + strings.Repeat(" Attempt(htm) Abort(htm,explicit) Backoff", 5) + " Attempt(htm) Commit(htm)"},
		{PhTM, "retry", "Begin Attempt(htm) Abort(htm,explicit) Attempt(sw) RetryWait Attempt(sw) Commit(sw)"},
		{HybridNOrec, "retry", "Begin Attempt(htm) Abort(htm,none) Attempt(sw) RetryWait Attempt(sw) RetryWait Attempt(sw) Commit(sw)"},
		{UnboundedHTM, "retry", "Begin Attempt(htm) RetryWait Attempt(htm) RetryWait Attempt(htm) Commit(htm)"},
		{TL2, "retry", "Begin Attempt(sw) RetryWait Attempt(sw) RetryWait Attempt(sw) Commit(sw)"},
		{USTMUFO, "retry", "Begin Attempt(ufo) RetryWait Attempt(ufo) Commit(ufo)"},
		{SLE, "syscall", "Begin" + strings.Repeat(" Attempt(htm) Abort(htm,syscall) Backoff", 2) + " Attempt(htm) Abort(htm,syscall) Attempt(fallback) Commit(fallback)"},
		{SLE, "retry", "Begin" + strings.Repeat(" Attempt(htm) Abort(htm,explicit) Backoff", 2) + " Attempt(htm) Abort(htm,explicit) Attempt(fallback) RetryWait Attempt(fallback) RetryWait Attempt(fallback) Commit(fallback)"},
		// sle.Attempts < K: the lock is taken before the policy escalates.
		{SLE, "starved", "Begin" + lost("htm", "interrupt", sle.Attempts) +
			strings.Repeat(" Attempt(fallback) Abort(fallback,explicit)", k+1-sle.Attempts) + " Attempt(fallback) Commit(fallback)"},
		// The loops the driver's untilCommit took over from ustm and seq: no
		// Backoff anywhere, since USTM waits for its killer and the
		// baselines re-run at once.
		{Sequential, "syscall", "Begin Attempt(fallback) Commit(fallback)"},
		{GlobalLock, "syscall", "Begin Attempt(fallback) Commit(fallback)"},
		{USTM, "syscall", "Begin Attempt(sw) Commit(sw)"},
		{Sequential, "retry", "Begin Attempt(fallback) RetryWait Attempt(fallback) RetryWait Attempt(fallback) Commit(fallback)"},
		{GlobalLock, "retry", "Begin Attempt(fallback) RetryWait Attempt(fallback) RetryWait Attempt(fallback) Commit(fallback)"},
		{USTM, "retry", "Begin Attempt(sw) RetryWait Attempt(sw) Commit(sw)"},
		{USTM, "starved", "Begin" + strings.Repeat(" Attempt(sw) Abort(sw,explicit)", k+1) + " Attempt(sw) Commit(sw)"},
		{USTMUFO, "starved", "Begin" + strings.Repeat(" Attempt(ufo) Abort(ufo,explicit)", k+1) + " Attempt(ufo) Commit(ufo)"},
		{GlobalLock, "starved", "Begin" + strings.Repeat(" Attempt(fallback) Abort(fallback,explicit)", k+1) + " Attempt(fallback) Commit(fallback)"},
	} {
		t.Run(string(c.system)+"/"+c.tx, func(t *testing.T) {
			procs, workload := 1, syscallTx
			opt := DefaultOptions()
			switch c.tx {
			case "retry":
				procs, workload = 2, retryTx
			case "starved":
				workload = starvedTx
				opt.CM = cm.KindSerialize
			}
			m := driverMachine(procs)
			rec := new(tmtest.EventLog)
			m.Observe(lifeKinds, rec)
			opt.OTableRows = 1 << 12
			sys := Build(c.system, m, opt)
			m.Run(workload(m, sys))
			if m.Mem.Read64(out) != 1 {
				t.Fatal("transaction's store lost")
			}
			if got := lifeString(rec.Events); got != c.want {
				t.Fatalf("lifecycle events\n got: %s\nwant: %s", got, c.want)
			}
		})
	}
}

// TestEmptyAtomicAllocs holds every system's steady state at no
// allocation per committed Atomic: an empty body, a body of four loads
// and two stores on distinct lines, and a read-only one. The hardware
// tm.Tx handle must stay pointer-shaped (or be built once per Exec) so
// handing it to the body does not allocate per attempt, and whatever a
// software path keeps per access — USTM's otable records, TL2's stripe
// sets, the redo log — must be reused from one transaction to the next.
// AllocsPerRun's own first call is the warm-up transaction.
func TestEmptyAtomicAllocs(t *testing.T) {
	for _, kind := range AllSystems {
		t.Run(string(kind), func(t *testing.T) {
			m := driverMachine(1)
			opt := DefaultOptions()
			opt.OTableRows = 1 << 12
			sys := Build(kind, m, opt)
			ex := sys.Exec(m.Proc(0))
			base := m.Mem.Sbrk(6 * mem.LineBytes)
			line := func(i uint64) uint64 { return base + i*mem.LineBytes }
			bodies := []struct {
				name string
				body func(tm.Tx)
			}{
				{"empty", func(tm.Tx) {}},
				{"4 loads + 2 stores", func(tx tm.Tx) {
					tx.Store(line(4), tx.Load(line(0))+tx.Load(line(1)))
					tx.Store(line(5), tx.Load(line(2))+tx.Load(line(3)))
				}},
				{"read-only", func(tx tm.Tx) {
					for i := uint64(0); i < 6; i++ {
						_ = tx.Load(line(i))
					}
				}},
			}
			m.Run([]func(*machine.Proc){func(*machine.Proc) {
				for _, b := range bodies {
					if got := testing.AllocsPerRun(200, func() { ex.Atomic(b.body) }); got != 0 {
						t.Errorf("%s: %v allocs per Atomic, want 0", b.name, got)
					}
				}
			}})
		})
	}
}
