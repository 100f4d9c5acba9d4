package cm

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// TestSerializeBoundary pins the starvation-escalation boundary: every
// attempt strictly below K backs off normally (a delay is issued and
// charged to the processor), while attempts at and past K escalate
// without charging any backoff — the starving transaction must not pay
// to be serialized.
func TestSerializeBoundary(t *testing.T) {
	const K = 4
	cases := []struct {
		attempt int
		want    Escalation
	}{
		{1, EscalateNone},
		{K - 2, EscalateNone},
		{K - 1, EscalateNone},
		{K, EscalateSerialize},
		{K + 1, EscalateSerialize},
		{K + 100, EscalateSerialize},
	}
	m := testMachine(1)
	mgr := NewManager(Spec{Kind: KindSerialize, StarveK: K})
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		for _, tc := range cases {
			before := p.Now()
			esc := mgr.OnAbort(p, 1, tc.attempt, machine.AbortConflict)
			if esc != tc.want {
				t.Errorf("attempt %d: escalation %v, want %v", tc.attempt, esc, tc.want)
			}
			charged := p.Now() - before
			if tc.want == EscalateNone && charged == 0 {
				t.Errorf("attempt %d: no backoff charged before the threshold", tc.attempt)
			}
			if tc.want == EscalateSerialize && charged != 0 {
				t.Errorf("attempt %d: escalation charged %d cycles, want 0", tc.attempt, charged)
			}
		}
	}})
	st := mgr.Stats()
	if st.Delays != 3 || st.StarvationEscalations != 3 {
		t.Fatalf("stats = %+v, want 3 delays and 3 escalations", st)
	}
}

// TestKarmaTies drives Karma.NextDelay through rival constellations,
// checking the deficit arithmetic at its edges: a tied rival (deficit
// 0), no rival at all, a weaker rival (negative deficit clamps to 0),
// and a stronger one. Base=64, so a zero deficit yields a delay in
// [64, 128) — the shift applies before the jitter draw.
func TestKarmaTies(t *testing.T) {
	const base = 64
	cases := []struct {
		name string
		// rivals are the karma values of other active transactions
		// (ages are assigned distinct from the subject's).
		rivals  []int
		attempt int
		wantLo  uint64 // inclusive
		wantHi  uint64 // exclusive
	}{
		{"no-rivals", nil, 3, base, 2 * base},
		{"tied-rival", []int{3}, 3, base, 2 * base},
		{"weaker-rival", []int{1}, 3, base, 2 * base},
		{"stronger-by-2", []int{5}, 3, base << 2, base<<2 + base},
		{"two-tied-rivals", []int{4, 4}, 4, base, 2 * base},
		{"strongest-wins", []int{2, 6, 4}, 3, base << 3, base<<3 + base},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := &Karma{Base: base, MaxShift: 7}
			k.OnAbort(1, tc.attempt, machine.AbortConflict) // the subject
			for i, rv := range tc.rivals {
				k.OnAbort(uint64(100+i), rv, machine.AbortConflict)
			}
			r := sim.NewRand(9)
			for i := 0; i < 16; i++ { // several jitter draws, same bounds
				d := k.NextDelay(tc.attempt, machine.AbortConflict, r)
				if d < tc.wantLo || d >= tc.wantHi {
					t.Fatalf("delay %d outside [%d, %d)", d, tc.wantLo, tc.wantHi)
				}
			}
		})
	}
}

// TestKarmaOnAbortUpdatesInPlace: repeated aborts of one transaction
// update its single active entry rather than accumulating duplicates
// (a duplicate would shadow the self-skip in NextDelay and make the
// transaction its own rival).
func TestKarmaOnAbortUpdatesInPlace(t *testing.T) {
	k := &Karma{Base: 64, MaxShift: 7}
	for attempt := 1; attempt <= 5; attempt++ {
		k.OnAbort(7, attempt, machine.AbortConflict)
	}
	if len(k.active) != 1 {
		t.Fatalf("%d active entries after 5 aborts of one tx, want 1", len(k.active))
	}
	if k.active[0].karma != 5 {
		t.Fatalf("karma %d, want 5 (latest attempt)", k.active[0].karma)
	}
	// With no rivals the veteran retries at the minimum delay.
	if d := k.NextDelay(5, machine.AbortConflict, sim.NewRand(1)); d >= 128 {
		t.Fatalf("lone veteran delay %d, want < 128", d)
	}
}

// TestTokenReentrancy pins the serialize path's token protocol around
// re-entry: nested acquisitions by the holder are free, TxDone by a
// non-holder must not release the token, and a fresh acquisition after
// release is a new grant.
func TestTokenReentrancy(t *testing.T) {
	m := testMachine(1)
	mgr := NewManager(Spec{Kind: KindSerialize, StarveK: 2})
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
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
	}})
	if mgr.tokenHeld {
		t.Fatal("token leaked out of the run")
	}
}
