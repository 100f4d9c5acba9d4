package cm

import (
	"testing"

	"repro/internal/machine"
)

// TestSerializeBoundary pins the starvation-escalation boundary: every
// attempt strictly below DefaultStarveK backs off normally (a delay is
// issued and charged to the processor), while attempts at and past it
// escalate without charging any backoff — the starving transaction must
// not pay to be serialized.
func TestSerializeBoundary(t *testing.T) {
	const K = DefaultStarveK
	cases := []struct {
		attempt  int
		starving bool
	}{
		{1, false},
		{K - 2, false},
		{K - 1, false},
		{K, true},
		{K + 1, true},
		{K + 100, true},
	}
	mgr := NewManager(KindSerialize)
	onProc(func(p *machine.Proc) {
		for _, tc := range cases {
			before := p.Now()
			if got := mgr.OnAbort(p, 1, tc.attempt); got != tc.starving {
				t.Errorf("attempt %d: starving %v, want %v", tc.attempt, got, tc.starving)
			}
			charged := p.Now() - before
			if !tc.starving && charged == 0 {
				t.Errorf("attempt %d: no backoff charged before the threshold", tc.attempt)
			}
			if tc.starving && charged != 0 {
				t.Errorf("attempt %d: escalation charged %d cycles, want 0", tc.attempt, charged)
			}
		}
	})
	st := mgr.Stats()
	if st.Delays != 3 || st.StarvationEscalations != 3 {
		t.Fatalf("stats = %+v, want 3 delays and 3 escalations", st)
	}
}

// TestKarmaTies drives karma's deficit arithmetic through the Manager at
// its edges: a tied rival (deficit 0), no rival at all, a weaker rival
// (negative deficit clamps to 0), a stronger one, and one stronger by
// more than DefaultMaxShift (the shift saturates). A zero deficit
// yields a delay in [DefaultBase, 2*DefaultBase) — the shift applies
// before the jitter draw.
func TestKarmaTies(t *testing.T) {
	const base = DefaultBase
	cases := []struct {
		name string
		// rivals are the karma values of other retrying transactions
		// (ages are assigned distinct from the subject's).
		rivals  []int
		attempt int
		floor   uint64
	}{
		{"no-rivals", nil, 3, base},
		{"tied-rival", []int{3}, 3, base},
		{"weaker-rival", []int{1}, 3, base},
		{"stronger-by-2", []int{5}, 3, base << 2},
		{"two-tied-rivals", []int{4, 4}, 4, base},
		{"strongest-wins", []int{2, 6, 4}, 3, base << 3},
		{"deficit-past-the-cap", []int{20}, 1, base << DefaultMaxShift},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mgr := NewManager(KindKarma)
			onProc(func(p *machine.Proc) {
				for i, rv := range tc.rivals {
					mgr.OnAbort(p, uint64(100+i), rv)
				}
				for i := 0; i < 16; i++ { // several jitter draws, same bounds
					if d := delayOf(p, mgr, 1, tc.attempt); !inUnit(d, tc.floor) {
						t.Fatalf("delay %d outside [%d, %d)", d, tc.floor, tc.floor+base)
					}
				}
			})
		})
	}
}

// TestKarmaOnAbortUpdatesInPlace: repeated aborts of one transaction
// update its single entry rather than accumulating duplicates (a
// duplicate would make the transaction its own rival).
func TestKarmaOnAbortUpdatesInPlace(t *testing.T) {
	mgr := NewManager(KindKarma)
	onProc(func(p *machine.Proc) {
		for attempt := 1; attempt <= 5; attempt++ {
			// With no rivals the veteran retries at the minimum delay.
			if d := delayOf(p, mgr, 7, attempt); !inUnit(d, DefaultBase) {
				t.Fatalf("lone transaction's delay %d at attempt %d, want the minimum", d, attempt)
			}
		}
	})
	if len(mgr.karma) != 1 {
		t.Fatalf("%d karma entries after 5 aborts of one tx, want 1", len(mgr.karma))
	}
	if mgr.karma[0].karma != 5 {
		t.Fatalf("karma %d, want 5 (latest attempt)", mgr.karma[0].karma)
	}
}

// TestTokenReentrancy pins the serialize path's token protocol around
// re-entry: nested acquisitions by the holder are free, TxDone by a
// non-holder must not release the token, and a fresh acquisition after
// release is a new grant.
func TestTokenReentrancy(t *testing.T) {
	mgr := NewManager(KindSerialize)
	onProc(func(p *machine.Proc) {
		mgr.AcquireToken(p, 1)
		mgr.AcquireToken(p, 1) // re-entrant: same owner, no second grant
		mgr.AcquireToken(p, 1)
		if got := mgr.Stats().TokenAcquisitions; got != 1 {
			t.Errorf("re-entrant acquisitions counted %d grants, want 1", got)
		}
		mgr.TxDone(2) // a non-holder completing must not release owner 1
		if !mgr.tokenHeld {
			t.Error("TxDone by non-holder released the token")
		}
		mgr.TxDone(1)
		if mgr.tokenHeld {
			t.Error("TxDone by holder left the token held")
		}
		mgr.TxDone(1)          // double release is a no-op
		mgr.AcquireToken(p, 2) // fresh grant after release
		if got := mgr.Stats().TokenAcquisitions; got != 2 {
			t.Errorf("acquisitions = %d after re-grant, want 2", got)
		}
		mgr.TxDone(2)
	})
	if mgr.tokenHeld {
		t.Fatal("token leaked out of the run")
	}
}
