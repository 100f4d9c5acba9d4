package cm

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
)

func testMachine(procs int) *machine.Machine {
	p := machine.DefaultParams(procs)
	p.MemBytes = 1 << 22
	p.Quantum = 0
	p.MaxSteps = 10_000_000
	return machine.New(p)
}

// onProc runs body on processor 0 of a one-processor machine.
func onProc(body func(p *machine.Proc)) {
	testMachine(1).Run([]func(*machine.Proc){body})
}

// delayOf runs one OnAbort and returns the cycles it charged to p.
func delayOf(p *machine.Proc, mgr *Manager, age uint64, attempt int) uint64 {
	before := p.Now()
	mgr.OnAbort(p, age, attempt)
	return p.Now() - before
}

// inUnit reports whether d is floor plus one jitter draw.
func inUnit(d, floor uint64) bool { return d >= floor && d < floor+DefaultBase }

// TestParseKind: every -policy value parses to itself; "" is exp;
// anything else is an error.
func TestParseKind(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParseKind(string(k))
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %q, %v", k, got, err)
		}
	}
	if k, err := ParseKind(""); err != nil || k != KindExponential {
		t.Fatalf("ParseKind(\"\") = %q, %v; want exp", k, err)
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind(bogus) must fail")
	}
}

// TestBackoffThroughManager drives every kind through Manager.OnAbort
// over one transaction's consecutive aborts and pins what each owes the
// simulator: exactly one RNG draw per backoff, so streams stay aligned
// across kinds; a delay of the kind's floor plus jitter in [0,
// DefaultBase); floors that never fall; for serialize, escalation on
// exactly the DefaultStarveK-th abort, charging and drawing nothing; and
// TxDone retiring karma's entry. A lone karma transaction has no rival,
// so its deficit is 0.
func TestBackoffThroughManager(t *testing.T) {
	exp := func(a int) uint64 { return DefaultBase << min(a, DefaultMaxShift) }
	floors := map[Kind]func(attempt int) uint64{
		KindExponential: exp,
		KindLinear:      func(a int) uint64 { return DefaultBase * uint64(min(max(a, 1), DefaultLinearCap)) },
		KindKarma:       func(int) uint64 { return DefaultBase },
		KindSerialize:   exp,
	}
	const attempts = 2 * DefaultLinearCap
	for _, k := range Kinds {
		t.Run(string(k), func(t *testing.T) {
			mgr := NewManager(k)
			onProc(func(p *machine.Proc) {
				prev := uint64(0)
				for a := 0; a <= attempts; a++ {
					want := *p.Rand()
					before := p.Now()
					starving := mgr.OnAbort(p, 1, a)
					d := p.Now() - before
					if k == KindSerialize && a >= DefaultStarveK {
						if !starving || d != 0 || *p.Rand() != want {
							t.Fatalf("attempt %d: starving %v, charged %d, RNG moved %v; want an escalation that costs nothing",
								a, starving, d, *p.Rand() != want)
						}
						continue
					}
					if starving {
						t.Fatalf("attempt %d escalated", a)
					}
					want.Intn(int(DefaultBase))
					if *p.Rand() != want {
						t.Fatalf("attempt %d: the RNG did not advance exactly once", a)
					}
					floor := floors[k](a)
					if !inUnit(d, floor) {
						t.Fatalf("attempt %d: delay %d outside [%d, %d)", a, d, floor, floor+DefaultBase)
					}
					if f := d - d%DefaultBase; f < prev {
						t.Fatalf("attempt %d: floor %d fell below %d", a, f, prev)
					} else {
						prev = f
					}
				}
			})
			mgr.TxDone(1)
			if len(mgr.karma) != 0 {
				t.Fatalf("TxDone left karma entries %v", mgr.karma)
			}
		})
	}
}

// TestCappedExponentialMonotoneCapped: the exponential saturates at
// DefaultBase << DefaultMaxShift however long a transaction starves, so
// the SLE overflow (`Base << attempt` for attempt up to 80 wrapping the
// uint64) cannot recur.
func TestCappedExponentialMonotoneCapped(t *testing.T) {
	mgr := NewManager(KindExponential)
	onProc(func(p *machine.Proc) {
		for _, a := range []int{DefaultMaxShift, 57, 64, 80, 1 << 20} {
			if d := delayOf(p, mgr, 1, a); !inUnit(d, DefaultBase<<DefaultMaxShift) {
				t.Fatalf("attempt %d: delay %d, want saturated at %d", a, d, DefaultBase<<DefaultMaxShift)
			}
		}
	})
}

// TestLinearCapped: linear backoff floors at one unit and stops growing
// at DefaultLinearCap units.
func TestLinearCapped(t *testing.T) {
	mgr := NewManager(KindLinear)
	onProc(func(p *machine.Proc) {
		cases := []struct {
			attempt int
			floor   uint64
		}{{0, DefaultBase}, {5, 5 * DefaultBase}, {10_000, DefaultLinearCap * DefaultBase}}
		for _, c := range cases {
			if d := delayOf(p, mgr, 1, c.attempt); !inUnit(d, c.floor) {
				t.Fatalf("attempt %d: delay %d, want floor %d", c.attempt, d, c.floor)
			}
		}
	})
}

// TestKarmaPriority: the much-aborted transaction retries almost
// immediately; its fresh rival yields by the karma deficit.
func TestKarmaPriority(t *testing.T) {
	mgr := NewManager(KindKarma)
	onProc(func(p *machine.Proc) {
		delayOf(p, mgr, 100, 1) // newcomer: karma 1
		if d := delayOf(p, mgr, 200, 5); !inUnit(d, DefaultBase) {
			t.Fatalf("veteran delay %d, want the minimum (no stronger rival)", d)
		}
		if d := delayOf(p, mgr, 100, 1); !inUnit(d, DefaultBase<<4) {
			t.Fatalf("newcomer delay %d, want floor %d (deficit 4)", d, DefaultBase<<4)
		}
		// The veteran commits: the newcomer has no rivals left.
		mgr.TxDone(200)
		if d := delayOf(p, mgr, 100, 1); !inUnit(d, DefaultBase) {
			t.Fatalf("post-commit delay %d, want the minimum", d)
		}
	})
	mgr.TxDone(100)
	if len(mgr.karma) != 0 {
		t.Fatalf("karma leaked entries: %v", mgr.karma)
	}
}

func TestSerializeEscalatesAfterK(t *testing.T) {
	mgr := NewManager(KindSerialize)
	onProc(func(p *machine.Proc) {
		for attempt := 1; attempt < DefaultStarveK; attempt++ {
			if mgr.OnAbort(p, 1, attempt) {
				t.Fatalf("attempt %d escalated early", attempt)
			}
		}
		if !mgr.OnAbort(p, 1, DefaultStarveK) {
			t.Fatalf("attempt %d must escalate", DefaultStarveK)
		}
	})
}

func TestManagerBackoffStats(t *testing.T) {
	mgr := NewManager(KindExponential)
	onProc(func(p *machine.Proc) {
		for attempt := 1; attempt <= 3; attempt++ {
			if mgr.OnAbort(p, 1, attempt) {
				t.Errorf("default policy escalated on attempt %d", attempt)
			}
		}
		mgr.RetryPoll(p)
	})
	st := mgr.Stats()
	if st.Delays != 3 || st.DelayCycles == 0 || st.MaxDelay < 64<<3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.RetryPolls != 1 {
		t.Fatalf("retry polls = %+v", st)
	}
}

func TestManagerStarvationEscalation(t *testing.T) {
	mgr := NewManager(KindSerialize)
	onProc(func(p *machine.Proc) {
		if mgr.OnAbort(p, 1, DefaultStarveK-1) {
			t.Error("the abort before the threshold escalated")
		}
		if !mgr.OnAbort(p, 1, DefaultStarveK) {
			t.Error("the threshold abort must escalate")
		}
	})
	st := mgr.Stats()
	if st.StarvationEscalations != 1 || st.Delays != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestManagerToken: mutual exclusion, re-entrancy, release on TxDone,
// and simulated wait time for the blocked acquirer.
func TestManagerToken(t *testing.T) {
	m := testMachine(2)
	mgr := NewManager(KindExponential)
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
	mgr := NewManager(KindSerialize)
	onProc(func(p *machine.Proc) {
		mgr.OnAbort(p, 1, DefaultStarveK) // escalates at once
	})
	snap := obs.NewSnapshot()
	mgr.Register(snap)
	if snap.Counter("cm.starvation_escalations") != 1 {
		t.Fatalf("cm.starvation_escalations = %d, want 1", snap.Counter("cm.starvation_escalations"))
	}
}
