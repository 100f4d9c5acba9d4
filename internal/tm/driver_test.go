package tm_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/tm"
)

// rig is one processor's Driver over a real machine, with every hook
// wired to a log so tests can read the order the driver called them in.
type rig struct {
	m   *machine.Machine
	h   tm.Handler
	d   *tm.Driver
	log []string

	gate      func() bool // optional Gate behaviour
	begin     func()      // optional Begin behaviour
	committed func()      // optional Committed behaviour
	swScript  []bool      // whether SW.End may commit, one per software attempt
}

// row classifies one reason of each kind and leaves the rest unset.
var row = tm.Dispositions{
	machine.AbortSyscall:   tm.Fatal,
	machine.AbortConflict:  tm.Counted,
	machine.AbortInterrupt: tm.Transient,
	machine.AbortExplicit:  tm.Fatal,
}

func newRig(procs int, fallback bool) *rig { return newRigOn(rigParams(procs), fallback) }

// newSWRig is a one-processor rig whose driver has no hardware handle or
// hooks, so Atomic runs the software path alone (as tl2's does).
func newSWRig() *rig {
	r := newRig(1, false)
	r.d.Tx, r.d.Committed = nil, nil
	return r
}

func rigParams(procs int) machine.Params {
	p := machine.DefaultParams(procs)
	p.MemBytes = 1 << 20
	p.Quantum = 0
	p.MaxSteps = 200_000
	return p
}

func newRigOn(p machine.Params, fallback bool) *rig {
	r := &rig{m: machine.New(p)}
	r.policy(cm.KindExponential)
	r.d = r.driver(0, fallback)
	return r
}

// policy gives the rig a fresh handler that backs off as kind says.
func (r *rig) policy(kind cm.Kind) {
	r.h = tm.NewHandler("rig", kind)
	r.h.On, r.h.RetryReason = row, machine.AbortExplicit
}

// stats is what the rig's machine has counted so far.
func (r *rig) stats() tm.Stats { return tm.StatsOf(&r.m.Count) }

func (r *rig) note(format string, args ...any) { r.log = append(r.log, fmt.Sprintf(format, args...)) }

func (r *rig) driver(proc int, fallback bool) *tm.Driver {
	p := r.m.Proc(proc)
	d := &tm.Driver{NT: tm.NT{P: p}, H: &r.h}
	d.Tx = d.HW()
	d.Gate = func() bool {
		if r.gate != nil {
			return r.gate()
		}
		return false
	}
	d.Begin = func() {
		r.note("begin")
		if r.begin != nil {
			r.begin()
		}
	}
	d.PreCommit = func() { r.note("precommit") }
	d.Committed = func() {
		r.note("committed")
		if r.committed != nil {
			r.committed()
		}
	}
	if fallback {
		d.Software = func(uint64, func(tm.Tx)) { r.note("software") }
	}
	d.SW = &rigSW{r: r, tx: &tm.Lazy{D: d, Miss: r.m.Mem.Read64, StoreCycles: 3}}
	return d
}

// rigSW is the smallest lazy-versioning STM there is: no validation, and
// a commit that publishes the log.
type rigSW struct {
	r  *rig
	tx *tm.Lazy
}

func (s *rigSW) BeginSW(uint64) tm.Tx {
	s.r.note("sw-begin")
	s.tx.Reset()
	return s.tx
}

func (s *rigSW) EndSW(aborted bool) bool {
	r := s.r
	ok := r.swScript[0] && !aborted
	r.swScript = r.swScript[1:]
	r.note("sw-end aborted=%v ok=%v", aborted, ok)
	if ok {
		s.tx.Log.Words(r.m.Mem.Write64)
	}
	return ok
}

// tokenHeldBy reports whether transaction id holds the serialization
// token. (Acquisition is re-entrant for the holder; no other transaction
// is in play in these tests, so a free token is taken and given back.)
func (r *rig) tokenHeldBy(id uint64) bool {
	mgr := r.h.CM()
	before := mgr.Stats().TokenAcquisitions
	mgr.AcquireToken(r.m.Proc(0), id)
	if mgr.Stats().TokenAcquisitions == before {
		return true
	}
	mgr.TxDone(id)
	mgr.Stats().TokenAcquisitions = before
	return false
}

// script is a transaction body that plays one step per attempt.
type step func(r *rig, tx tm.Tx)

func inject(reason machine.AbortReason) step {
	return func(r *rig, _ tm.Tx) { r.d.HW().AbortFor(reason) }
}

// times is n copies of s: enough aborts to reach cm.DefaultStarveK.
func times(n int, s step) []step {
	steps := make([]step, n)
	for i := range steps {
		steps[i] = s
	}
	return steps
}

func (r *rig) body(steps ...step) func(tm.Tx) {
	i := 0
	return func(tx tm.Tx) {
		r.note("body")
		tx.OnCommit(func() { r.note("deferred") })
		if i < len(steps) {
			s := steps[i]
			i++
			s(r, tx)
		}
	}
}

func (r *rig) run(f func()) {
	r.m.Run([]func(*machine.Proc){func(*machine.Proc) { f() }})
}

func (r *rig) want(t *testing.T, log string, stats tm.Stats) {
	t.Helper()
	if got := strings.Join(r.log, ", "); got != log {
		t.Errorf("hook order\n got: %s\nwant: %s", got, log)
	}
	if got := r.stats(); got != stats {
		t.Errorf("stats %v, want %v", &got, &stats)
	}
}

func TestDriverCommitsInHardware(t *testing.T) {
	r := newRig(1, true)
	r.run(func() { r.d.Atomic(r.body()) })
	r.want(t, "begin, body, precommit, committed, deferred", tm.Stats{HWCommits: 1})
	// A finished transaction's closures are gone with it.
	r.log = nil
	r.run(func() { r.d.Atomic(func(tm.Tx) {}) })
	r.want(t, "begin, precommit, committed", tm.Stats{HWCommits: 2})
}

func TestDriverAbortHandlerArms(t *testing.T) {
	for _, c := range []struct {
		name   string
		limit  int
		steps  []step
		log    string
		stats  tm.Stats
		cm     cm.Stats
		policy cm.Kind
	}{
		{name: "fatal fails over at once", steps: []step{inject(machine.AbortSyscall)},
			log: "begin, body, software", stats: tm.Stats{Failovers: 1}},
		{name: "transient backs off and retries", steps: []step{inject(machine.AbortInterrupt), inject(machine.AbortInterrupt)},
			log:   "begin, body, begin, body, begin, body, precommit, committed, deferred",
			stats: tm.Stats{HWCommits: 1, HWRetries: 2}, cm: cm.Stats{Delays: 2}},
		{name: "counted without a limit never fails over", steps: []step{inject(machine.AbortConflict), inject(machine.AbortConflict), inject(machine.AbortConflict)},
			log:   "begin, body, begin, body, begin, body, begin, body, precommit, committed, deferred",
			stats: tm.Stats{HWCommits: 1, HWRetries: 3}, cm: cm.Stats{Delays: 3}},
		{name: "the limit-th counted abort fails over", limit: 2,
			steps: []step{inject(machine.AbortConflict), inject(machine.AbortInterrupt), inject(machine.AbortConflict)},
			log:   "begin, body, begin, body, begin, body, software",
			stats: tm.Stats{Failovers: 1, HWRetries: 2}, cm: cm.Stats{Delays: 2}},
		{name: "a retry request is classified under RetryReason", steps: []step{func(_ *rig, tx tm.Tx) { tx.Retry() }},
			log: "begin, body, software", stats: tm.Stats{Failovers: 1}},
		{name: "escalation fails over instead of backing off", policy: cm.KindSerialize,
			steps: times(cm.DefaultStarveK, inject(machine.AbortInterrupt)),
			log:   strings.Repeat("begin, body, ", cm.DefaultStarveK) + "software",
			stats: tm.Stats{Failovers: 1, HWRetries: cm.DefaultStarveK}, cm: cm.Stats{Delays: cm.DefaultStarveK - 1, StarvationEscalations: 1}},
		{name: "an explicit abort reaches the handler", steps: []step{func(_ *rig, tx tm.Tx) { tx.Abort() }},
			log: "begin, body, software", stats: tm.Stats{Failovers: 1}},
		{name: "an inner abort of a flattened nest aborts the transaction",
			steps: []step{func(_ *rig, tx tm.Tx) { tx.Nested(func() { tx.Abort() }) }},
			log:   "begin, body, software", stats: tm.Stats{Failovers: 1}},
		{name: "a nest that commits folds into the transaction",
			steps: []step{func(_ *rig, tx tm.Tx) { tx.Nested(func() { tx.Store(0, 1) }) }},
			log:   "begin, body, precommit, committed, deferred", stats: tm.Stats{HWCommits: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(1, true)
			r.policy(c.policy)
			r.h.Limit = c.limit
			r.run(func() { r.d.Atomic(r.body(c.steps...)) })
			r.want(t, c.log, c.stats)
			got := *r.h.CM().Stats()
			got.DelayCycles, got.MaxDelay = 0, 0
			if got != c.cm {
				t.Errorf("cm stats %+v, want %+v", got, c.cm)
			}
		})
	}
}

func TestDriverUnclassifiedReasonPanics(t *testing.T) {
	r := newRig(1, true)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "rig") || !strings.Contains(msg, machine.AbortUFOKill.String()) {
			t.Fatalf("panic %q does not name the system and the reason", msg)
		}
	}()
	r.run(func() { r.d.Atomic(r.body(inject(machine.AbortUFOKill))) })
	t.Fatal("an abort reason the row does not classify must panic")
}

func TestDriverGate(t *testing.T) {
	// A gate that stalls twice, lets one attempt through, and then sends
	// the transaction to software.
	r := newRig(1, true)
	calls := 0
	r.gate = func() bool {
		for calls++; calls <= 2; calls++ {
			r.note("stall")
			r.d.P.Elapse(10)
		}
		r.note("gate")
		return calls > 3
	}
	r.run(func() { r.d.Atomic(r.body(inject(machine.AbortInterrupt))) })
	r.want(t, "stall, stall, gate, begin, body, gate, software", tm.Stats{Failovers: 1, HWRetries: 1})
}

func TestDriverRetryNowSkipsTheHandler(t *testing.T) {
	// Begin aborts the first two attempts on another party's behalf with
	// a reason the row calls Fatal: RetryNow keeps them out of the
	// handler, so no backoff, no count, no failover.
	r := newRig(1, true)
	n := 0
	r.begin = func() {
		if n++; n <= 2 {
			r.d.RetryNow()
			r.d.HW().AbortBy(machine.AbortExplicit, -1, 64)
		}
	}
	r.run(func() { r.d.Atomic(r.body()) })
	r.want(t, "begin, begin, begin, body, precommit, committed, deferred", tm.Stats{HWCommits: 1})
	if cs := r.h.CM().Stats(); cs.Delays != 0 {
		t.Fatalf("%d backoffs drawn for attempts marked RetryNow", cs.Delays)
	}
}

func TestDriverWithoutSoftwareRetriesUntilCommit(t *testing.T) {
	r := newRig(1, false)
	r.d.SW = nil // no software path at all: hardware-only
	r.policy(cm.KindSerialize)
	const age = 1 // the machine's first transaction
	const k = cm.DefaultStarveK
	var heldInBody, heldInCommitted bool
	r.committed = func() { heldInCommitted = r.tokenHeldBy(age) }
	steps := []step{
		func(_ *rig, tx tm.Tx) { tx.Retry() },
	}
	steps = append(steps, times(k-1, inject(machine.AbortInterrupt))...)
	steps = append(steps,
		inject(machine.AbortSyscall), // Fatal has nowhere to go: retried
		func(r *rig, _ tm.Tx) { heldInBody = r.tokenHeldBy(age) },
	)
	r.run(func() { r.d.Atomic(r.body(steps...)) })
	// The k-th contention abort escalates: the token is taken, held
	// across the last attempt, and released before Committed runs.
	if !heldInBody || heldInCommitted {
		t.Errorf("token held in the escalated attempt = %v, in Committed = %v; want true, false", heldInBody, heldInCommitted)
	}
	r.want(t, strings.Repeat("begin, body, ", k+1)+"begin, body, precommit, committed, deferred",
		tm.Stats{HWCommits: 1, HWRetries: k, Retries: 1})
	got := *r.h.CM().Stats()
	got.DelayCycles, got.MaxDelay = 0, 0
	want := cm.Stats{Delays: k - 1, RetryPolls: 1, StarvationEscalations: 1, TokenAcquisitions: 1}
	if got != want {
		t.Fatalf("cm stats %+v, want %+v", got, want)
	}
}

func TestDriverSoftwarePath(t *testing.T) {
	abort := func(_ *rig, tx tm.Tx) { tx.Abort() }
	retry := func(_ *rig, tx tm.Tx) { tx.Retry() }
	t.Run("Atomic with no hardware handle", func(t *testing.T) {
		// Attempts: body aborts; commit-time validation fails; body asks
		// to retry; commit.
		r := newSWRig()
		r.swScript = []bool{true, false, true, true}
		r.run(func() { r.d.Atomic(r.body(abort, pass, retry)) })
		r.want(t, "sw-begin, body, sw-end aborted=true ok=false, "+
			"sw-begin, body, sw-end aborted=false ok=false, "+
			"sw-begin, body, sw-end aborted=true ok=false, "+
			"sw-begin, body, sw-end aborted=false ok=true, deferred",
			tm.Stats{SWCommits: 1, SWAborts: 2, Retries: 1})
	})
	// k aborts escalate; the attempt after them commits.
	const k = cm.DefaultStarveK
	commits := func() []bool {
		script := make([]bool, k+1)
		for i := range script {
			script[i] = true
		}
		return script
	}
	t.Run("escalation takes the token until TxDone", func(t *testing.T) {
		r := newSWRig()
		r.policy(cm.KindSerialize)
		r.swScript = commits()
		const age = 1 // the machine's first transaction
		held := false
		r.run(func() {
			r.d.Atomic(r.body(append(times(k, abort), func(r *rig, _ tm.Tx) { held = r.tokenHeldBy(age) })...))
		})
		if after := r.tokenHeldBy(age); !held || after {
			t.Fatalf("token held during the escalated attempt = %v, afterwards = %v; want true, false", held, after)
		}
	})
	t.Run("RunSW leaves TxDone to the caller", func(t *testing.T) {
		r := newRig(1, false)
		r.policy(cm.KindSerialize)
		r.swScript = commits()
		r.run(func() { r.d.RunSW(7, r.body(times(k, abort)...)) })
		if !r.tokenHeldBy(7) {
			t.Fatal("RunSW released the token: the hybrid's failover arm does that, after the software path returns")
		}
		r.want(t, strings.Repeat("sw-begin, body, sw-end aborted=true ok=false, ", k)+
			"sw-begin, body, sw-end aborted=false ok=true, deferred",
			tm.Stats{SWCommits: 1, SWAborts: k})
	})
}

func pass(*rig, tm.Tx) {}

// TestLazyHandle drives tm.Lazy — the rig's software handle — through
// Atomic with no hardware handle, one step per attempt; what a step loads
// goes in the hook log.
func TestLazyHandle(t *testing.T) {
	const x, y = 0, 64
	for _, c := range []struct {
		name  string
		steps []step
		log   string // between "sw-begin, body, " and the committing sw-end
		stats tm.Stats
		x, y  uint64 // memory afterwards
	}{
		{name: "an aborted nest's overwrite restores the pre-nest value",
			steps: []step{func(r *rig, tx tm.Tx) {
				tx.Store(x, 1)
				ok := tx.Nested(func() {
					tx.Store(x, 2)
					tx.Store(y, 3)
					r.note("nest sees %d %d", tx.Load(x), tx.Load(y))
					tx.Abort()
				})
				r.note("ok=%v leaves %d %d", ok, tx.Load(x), tx.Load(y))
			}},
			log: "nest sees 2 3, ok=false leaves 1 0, ", stats: tm.Stats{SWCommits: 1}, x: 1},
		{name: "an inner nest aborts alone and a sibling commits",
			steps: []step{func(r *rig, tx tm.Tx) {
				tx.Store(x, 1)
				outer := tx.Nested(func() {
					tx.Store(x, 2)
					inner := tx.Nested(func() {
						tx.Store(x, 3)
						tx.Abort()
					})
					r.note("inner=%v leaves %d", inner, tx.Load(x))
					tx.Nested(func() { tx.Store(y, 4) })
				})
				r.note("outer=%v leaves %d %d", outer, tx.Load(x), tx.Load(y))
			}},
			log: "inner=false leaves 2, outer=true leaves 2 4, ", stats: tm.Stats{SWCommits: 1}, x: 2, y: 4},
		{name: "an outer abort takes a committed inner nest with it",
			steps: []step{func(r *rig, tx tm.Tx) {
				tx.Store(x, 1)
				outer := tx.Nested(func() {
					tx.Nested(func() { tx.Store(x, 5) })
					tx.Store(y, 6)
					tx.Abort()
				})
				r.note("outer=%v leaves %d %d", outer, tx.Load(x), tx.Load(y))
			}},
			log: "outer=false leaves 1 0, ", stats: tm.Stats{SWCommits: 1}, x: 1},
		{name: "a transaction unwound from inside a nest leaves no nest open",
			steps: []step{
				func(_ *rig, tx tm.Tx) { tx.Nested(func() { tx.Nested(tx.Retry) }) },
				// Abort now means the whole transaction again.
				func(_ *rig, tx tm.Tx) { tx.Store(x, 7); tx.Abort() },
			},
			log:   "sw-end aborted=true ok=false, sw-begin, body, sw-end aborted=true ok=false, sw-begin, body, ",
			stats: tm.Stats{SWCommits: 1, SWAborts: 1, Retries: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newSWRig()
			r.swScript = []bool{true, true, true}
			r.run(func() { r.d.Atomic(r.body(c.steps...)) })
			r.want(t, "sw-begin, body, "+c.log+"sw-end aborted=false ok=true, deferred", c.stats)
			if gx, gy := r.m.Mem.Read64(x), r.m.Mem.Read64(y); gx != c.x || gy != c.y {
				t.Errorf("committed x = %d, y = %d; want %d, %d", gx, gy, c.x, c.y)
			}
		})
	}
}

func TestDriverDiscardsDeferredOfAbortedAttempts(t *testing.T) {
	r := newRig(1, true)
	ran := 0
	tries := 0
	r.run(func() {
		r.d.Atomic(func(tx tm.Tx) {
			tx.OnCommit(func() { ran++ })
			if tries++; tries < 3 {
				inject(machine.AbortInterrupt)(r, tx)
			}
		})
	})
	if ran != 1 {
		t.Fatalf("deferred closure ran %d times, want exactly once", ran)
	}
}

// TestDriverPassesForeignUnwinds: when a run is torn down (another
// processor panicked, or the step budget ran out) the engine unwinds
// every parked workload with a panic of its own. It must pass through the
// driver and its Catch like any foreign panic, so the workload's deferred
// calls run and Run reports the failure that stopped it.
func TestDriverPassesForeignUnwinds(t *testing.T) {
	t.Run("peer panic while parked inside the body", func(t *testing.T) {
		r := newRig(2, true)
		unwound := false
		defer func() {
			if got := recover(); got != "boom" {
				t.Fatalf("Run panicked with %v, want the peer's panic", got)
			}
			if !unwound {
				t.Fatal("the parked transaction's workload was not unwound")
			}
			if st := r.stats(); st != (tm.Stats{}) {
				t.Fatalf("stats %v: a stopped transaction must not be counted", &st)
			}
		}()
		r.m.Run([]func(*machine.Proc){
			func(p *machine.Proc) {
				defer func() { unwound = true }()
				r.d.Atomic(func(tm.Tx) { p.Elapse(1_000_000) })
			},
			func(p *machine.Proc) {
				p.Elapse(100)
				panic("boom")
			},
		})
	})
	t.Run("step budget exhausted mid-loop", func(t *testing.T) {
		r := newRig(2, true)
		unwound := false
		// Two processors that abort each other's every attempt by hand:
		// the retry loop never ends, and only the budget stops it.
		other := r.driver(1, true)
		livelock := func(d *tm.Driver) func(*machine.Proc) {
			return func(*machine.Proc) {
				defer func() { unwound = true }()
				d.Atomic(func(tm.Tx) { d.HW().AbortFor(machine.AbortInterrupt) })
			}
		}
		halt := sim.Catch(func() { r.m.Run([]func(*machine.Proc){livelock(r.d), livelock(other)}) })
		if halt == nil || halt.Kind != "budget" || !strings.Contains(halt.Error(), "step budget exhausted") {
			t.Fatalf("Run halted with %v, want the livelock diagnostic", halt)
		}
		if !unwound {
			t.Fatal("the looping transaction's workload was not unwound")
		}
	})
}

func TestNTAccesses(t *testing.T) {
	r := newRig(1, true)
	r.run(func() {
		r.d.Store(128, 9)
		if got := r.d.Load(128); got != 9 {
			t.Errorf("Load = %d, want 9", got)
		}
	})
	if r.d.Proc() != r.m.Proc(0) {
		t.Error("Proc does not return the driver's processor")
	}
}
