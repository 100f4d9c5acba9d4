package cm

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

func testMachine(procs int) *machine.Machine {
	p := machine.DefaultParams(procs)
	p.MemBytes = 1 << 22
	p.Quantum = 0
	p.MaxSteps = 10_000_000
	return machine.New(p)
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"zero spec", Spec{}, true},
		{"exp", Spec{Kind: KindExponential}, true},
		{"linear", Spec{Kind: KindLinear}, true},
		{"karma", Spec{Kind: KindKarma}, true},
		{"serialize", Spec{Kind: KindSerialize}, true},
		{"explicit knobs", Spec{Kind: KindExponential, Base: 32, MaxShift: 5}, true},
		{"zero base ok (defaulted)", Spec{Base: 0}, true},
		{"unknown kind", Spec{Kind: "polite"}, false},
		{"negative shift", Spec{MaxShift: -1}, false},
		{"huge shift", Spec{MaxShift: 33}, false},
		{"negative starveK", Spec{StarveK: -1}, false},
		{"absurd base", Spec{Base: 1 << 40}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
		// Policy must agree with Validate.
		if _, err := c.spec.Policy(); (err == nil) != c.ok {
			t.Errorf("%s: Policy() error = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestParseSpec(t *testing.T) {
	for _, k := range Kinds {
		s, err := ParseSpec(string(k))
		if err != nil || s.Kind != k {
			t.Fatalf("ParseSpec(%q) = %+v, %v", k, s, err)
		}
	}
	if s, err := ParseSpec(""); err != nil || s.Kind != KindExponential {
		t.Fatalf("ParseSpec(\"\") = %+v, %v; want exp", s, err)
	}
	if _, err := ParseSpec("bogus"); err == nil {
		t.Fatal("ParseSpec(bogus) must fail")
	}
}

// TestZeroBaseGuarded is the regression for the Rand().Intn(0) panic: a
// system built with a zero backoff base panicked on its first backoff.
// Every kind must accept a zero Spec.Base, resolve it to DefaultBase on
// the constructor path every system takes, and issue a sane delay.
func TestZeroBaseGuarded(t *testing.T) {
	for _, k := range Kinds {
		mgr := NewManager(Spec{Kind: k})
		testMachine(1).Run([]func(*machine.Proc){func(p *machine.Proc) {
			mgr.OnAbort(p, 1, 1, machine.AbortConflict) // panics without the guard
		}})
		if d := mgr.Stats().DelayCycles; d < DefaultBase || d > DefaultBase<<DefaultMaxShift+DefaultBase {
			t.Fatalf("%s: first delay with defaulted base = %d", k, d)
		}
	}
}

// TestCappedExponentialMonotoneCapped proves the delay schedule is
// monotone non-decreasing and saturates at Base << MaxShift — i.e. the
// SLE overflow (`Base << attempt` for attempt up to 80 wrapping the
// uint64) cannot recur. Base 1 makes the jitter draw Intn(1) == 0, so
// the schedule is exact.
func TestCappedExponentialMonotoneCapped(t *testing.T) {
	pol := CappedExponential{Base: 1, MaxShift: DefaultMaxShift}
	r := sim.NewRand(7)
	prev := uint64(0)
	for attempt := 0; attempt < 80; attempt++ {
		d := pol.NextDelay(attempt, machine.AbortConflict, r)
		if d < prev {
			t.Fatalf("attempt %d: delay %d < previous %d (not monotone)", attempt, d, prev)
		}
		if d > 1<<DefaultMaxShift {
			t.Fatalf("attempt %d: delay %d exceeds the cap %d", attempt, d, 1<<DefaultMaxShift)
		}
		if attempt >= DefaultMaxShift && d != 1<<DefaultMaxShift {
			t.Fatalf("attempt %d: delay %d, want saturated %d", attempt, d, 1<<DefaultMaxShift)
		}
		prev = d
	}
	// With the paper's base the jitter stays within [0, Base).
	pol = CappedExponential{Base: 64, MaxShift: 7}
	for _, attempt := range []int{1, 7, 60, 80} {
		d := pol.NextDelay(attempt, machine.AbortConflict, r)
		lo := uint64(64) << uint(clamp(attempt, 7))
		if d < lo || d >= lo+64 {
			t.Fatalf("attempt %d: delay %d outside [%d, %d)", attempt, d, lo, lo+64)
		}
	}
}

func TestLinearCapped(t *testing.T) {
	pol := Linear{Base: 1, Cap: DefaultLinearCap}
	r := sim.NewRand(3)
	if d := pol.NextDelay(0, machine.AbortConflict, r); d != 1 {
		t.Fatalf("attempt 0: delay %d, want 1 (floor)", d)
	}
	if d := pol.NextDelay(5, machine.AbortConflict, r); d != 5 {
		t.Fatalf("attempt 5: delay %d, want 5", d)
	}
	if d := pol.NextDelay(10_000, machine.AbortConflict, r); d != DefaultLinearCap {
		t.Fatalf("attempt 10000: delay %d, want capped %d", d, DefaultLinearCap)
	}
}

// TestKarmaPriority: the much-aborted transaction retries almost
// immediately; its fresh rival yields proportionally to the karma
// deficit. Base 1 zeroes the jitter.
func TestKarmaPriority(t *testing.T) {
	k := &Karma{Base: 1, MaxShift: 7}
	r := sim.NewRand(5)

	k.OnAbort(100, 1, machine.AbortConflict) // newcomer: karma 1
	k.OnAbort(200, 5, machine.AbortConflict) // veteran: karma 5

	if d := k.NextDelay(5, machine.AbortConflict, r); d != 1 {
		t.Fatalf("veteran delay %d, want 1 (no stronger rival)", d)
	}
	if d := k.NextDelay(1, machine.AbortConflict, r); d != 1<<4 {
		t.Fatalf("newcomer delay %d, want %d (deficit 4)", d, 1<<4)
	}

	// The veteran commits: the newcomer has no rivals left.
	k.OnCommit(200)
	if d := k.NextDelay(1, machine.AbortConflict, r); d != 1 {
		t.Fatalf("post-commit delay %d, want 1", d)
	}
	k.OnCommit(100)
	if len(k.active) != 0 {
		t.Fatalf("karma leaked entries: %v", k.active)
	}
}

func TestSerializeEscalatesAfterK(t *testing.T) {
	pol := SerializeOnStarvation{Inner: CappedExponential{Base: 64, MaxShift: 7}, K: 3}
	for attempt := 1; attempt < 3; attempt++ {
		if esc := pol.OnAbort(1, attempt, machine.AbortConflict); esc != EscalateNone {
			t.Fatalf("attempt %d escalated early", attempt)
		}
	}
	if esc := pol.OnAbort(1, 3, machine.AbortConflict); esc != EscalateSerialize {
		t.Fatal("attempt 3 must escalate")
	}
	if !strings.Contains(pol.Name(), "serialize") {
		t.Fatalf("name %q", pol.Name())
	}
}

func TestManagerBackoffStats(t *testing.T) {
	m := testMachine(1)
	mgr := NewManager(Spec{})
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		for attempt := 1; attempt <= 3; attempt++ {
			if esc := mgr.OnAbort(p, 1, attempt, machine.AbortConflict); esc != EscalateNone {
				t.Errorf("default policy escalated on attempt %d", attempt)
			}
		}
		mgr.PageFaultStall(p)
		mgr.RetryPoll(p)
	}})
	st := mgr.Stats()
	if st.Delays != 3 || st.DelayCycles == 0 || st.MaxDelay < 64<<3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PageFaultStalls != 1 || st.RetryPolls != 1 {
		t.Fatalf("stall counters = %+v", st)
	}
	if mgr.PolicyName() != "exp" {
		t.Fatalf("policy name %q", mgr.PolicyName())
	}
}

func TestManagerStarvationEscalation(t *testing.T) {
	m := testMachine(1)
	mgr := NewManager(Spec{Kind: KindSerialize, StarveK: 2})
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		if esc := mgr.OnAbort(p, 1, 1, machine.AbortConflict); esc != EscalateNone {
			t.Error("attempt 1 escalated early")
		}
		if esc := mgr.OnAbort(p, 1, 2, machine.AbortConflict); esc != EscalateSerialize {
			t.Error("attempt 2 must escalate")
		}
	}})
	st := mgr.Stats()
	if st.StarvationEscalations != 1 || st.Delays != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestManagerToken: mutual exclusion, re-entrancy, release on TxDone,
// and simulated wait time for the blocked acquirer.
func TestManagerToken(t *testing.T) {
	m := testMachine(2)
	mgr := NewManager(Spec{})
	order := []int{}
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			mgr.AcquireToken(p, 1)
			mgr.AcquireToken(p, 1) // re-entrant: no second grant
			p.Elapse(1000)
			order = append(order, 0)
			mgr.TxDone(1)
		},
		func(p *machine.Proc) {
			p.Elapse(10) // let proc 0 win the token deterministically
			mgr.AcquireToken(p, 2)
			order = append(order, 1)
			mgr.TxDone(2)
		},
	})
	st := mgr.Stats()
	if st.TokenAcquisitions != 2 {
		t.Fatalf("acquisitions = %d, want 2", st.TokenAcquisitions)
	}
	if st.TokenWaitCycles == 0 {
		t.Fatal("proc 1 must have waited for the token")
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order = %v: token did not serialize", order)
	}
	if mgr.tokenHeld {
		t.Fatal("token leaked")
	}
}

// TestMetricsWritten: the cm.* counters land in an obs snapshot with
// the Manager's values (OBSERVABILITY.md contract).
func TestMetricsWritten(t *testing.T) {
	m := testMachine(1)
	mgr := NewManager(Spec{Kind: KindSerialize, StarveK: 1})
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		mgr.OnAbort(p, 1, 1, machine.AbortConflict) // escalates immediately
		mgr.PageFaultStall(p)
	}})
	snap := obs.NewSnapshot()
	mgr.Register(snap)
	if snap.Counter("cm.starvation_escalations") != 1 {
		t.Fatalf("cm.starvation_escalations = %d, want 1", snap.Counter("cm.starvation_escalations"))
	}
	if snap.Counter("cm.page_fault_stalls") != 1 {
		t.Fatalf("cm.page_fault_stalls = %d, want 1", snap.Counter("cm.page_fault_stalls"))
	}
}

// TestSpecBaseIsTheBackoffUnit: Spec.Base is the one name for the
// backoff unit, fixed when the manager is built. Base 1 makes the jitter
// draw Intn(1) == 0, so that delay is exact.
func TestSpecBaseIsTheBackoffUnit(t *testing.T) {
	delay := func(spec Spec) uint64 {
		mgr := NewManager(spec)
		if got := mgr.PolicyName(); got != "exp" {
			t.Fatalf("policy of %+v = %q, want exp", spec, got)
		}
		testMachine(1).Run([]func(*machine.Proc){func(p *machine.Proc) {
			mgr.OnAbort(p, 1, 0, machine.AbortConflict)
		}})
		return mgr.Stats().DelayCycles
	}
	if got := delay(Spec{Base: 1}); got != 1 {
		t.Fatalf("delay with Base 1 = %d, want 1", got)
	}
	if got := delay(Spec{Base: 4}); got < 4 || got >= 8 {
		t.Fatalf("delay with Base 4 = %d, want in [4, 8)", got)
	}
	if got := delay(Spec{}); got < DefaultBase || got >= 2*DefaultBase {
		t.Fatalf("delay with the zero Spec = %d, want in [%d, %d)", got, DefaultBase, 2*DefaultBase)
	}
}
