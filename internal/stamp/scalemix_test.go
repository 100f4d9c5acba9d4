package stamp

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
)

// runScaleMix runs one ScaleMix cell from newMix on the lock baseline and
// returns it with its machine, not yet validated.
func runScaleMix(newMix func() *ScaleMix, threads int) (*ScaleMix, *machine.Machine) {
	w := newMix()
	m := testMachine(threads)
	sys := lockSys(m)
	w.Init(m, threads)
	bodies := make([]func(*machine.Proc), threads)
	for i := range bodies {
		ex, tid := sys.Exec(m.Proc(i)), i
		bodies[i] = func(*machine.Proc) { w.Thread(tid, ex) }
	}
	m.Run(bodies)
	return w, m
}

// TestScaleMixSharedDigests: the cells of one NewScaleMixes replay each
// thread count's hash chains once between them, even when they validate
// at the same time; a committed digest that does not match the replay
// still fails the cell that reads the table a replay filled; and a
// fresh NewScaleMixes replays again, so no table outlives its sweep.
func TestScaleMixSharedDigests(t *testing.T) {
	newMix := NewScaleMixes(96, 16)
	w1, m1 := runScaleMix(newMix, 2)
	w2, m2 := runScaleMix(newMix, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, c := range []struct {
		w *ScaleMix
		m *machine.Machine
	}{{w1, m1}, {w2, m2}} {
		wg.Add(1)
		go func() { defer wg.Done(); errs[i] = c.w.Validate(c.m) }()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i+1, err)
		}
	}
	if n := w1.digests.replays; n != 1 {
		t.Fatalf("two cells at 2 threads replayed %d times, want 1", n)
	}

	digest := w2.digestBase + mem.LineBytes // thread 1's committed digest
	m2.Mem.Write64(digest, m2.Mem.Read64(digest)+1)
	if err := w2.Validate(m2); err == nil || !strings.Contains(err.Error(), "thread 1 digest") {
		t.Fatalf("a wrong committed digest: Validate returned %v", err)
	}

	w4, m4 := runScaleMix(newMix, 4)
	if err := w4.Validate(m4); err != nil || w1.digests.replays != 2 {
		t.Fatalf("a 4-thread cell: Validate %v after %d replays, want nil after 2", err, w1.digests.replays)
	}

	w3, m3 := runScaleMix(NewScaleMixes(96, 16), 2)
	if err := w3.Validate(m3); err != nil {
		t.Fatal(err)
	}
	if w3.digests == w1.digests || w3.digests.replays != 1 {
		t.Fatalf("a fresh NewScaleMixes shares the first one's table or replayed %d times", w3.digests.replays)
	}
}
