package cache

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	c := NewL1(32*1024, 64, 4)
	if c.Sets() != 128 || c.Ways() != 4 {
		t.Fatalf("geometry = %d sets × %d ways, want 128×4", c.Sets(), c.Ways())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewL1(0, 64, 4)
}

func TestHitAfterTouch(t *testing.T) {
	c := NewL1(4096, 64, 2)
	if hit, _, _ := c.Touch(7); hit {
		t.Fatal("first touch must miss")
	}
	if hit, _, _ := c.Touch(7); !hit {
		t.Fatal("second touch must hit")
	}
	if !c.Contains(7) || c.Contains(8) {
		t.Fatal("Contains wrong")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache, 2 sets. Lines 0,2,4 map to set 0.
	c := NewL1(4*64, 64, 2)
	c.Touch(0)
	c.Touch(2)
	c.Touch(0) // line 0 is now MRU; line 2 is LRU
	_, victim, evicted := c.Touch(4)
	if !evicted || victim != 2 {
		t.Fatalf("evicted=%v victim=%d, want eviction of line 2", evicted, victim)
	}
	if c.Contains(2) {
		t.Fatal("victim still resident")
	}
	if !c.Contains(0) || !c.Contains(4) {
		t.Fatal("survivors missing")
	}
}

func TestInvalidate(t *testing.T) {
	c := NewL1(4096, 64, 4)
	c.Touch(3)
	c.Invalidate(3)
	if c.Contains(3) {
		t.Fatal("invalidate failed")
	}
	c.Invalidate(99) // absent line: no-op
}

func TestInvalidateAll(t *testing.T) {
	c := NewL1(4096, 64, 4)
	for i := uint64(0); i < 30; i++ {
		c.Touch(i)
	}
	c.InvalidateAll()
	for i := uint64(0); i < 30; i++ {
		if c.Contains(i) {
			t.Fatalf("line %d survived InvalidateAll", i)
		}
	}
}

func TestCapacityBound(t *testing.T) {
	// Property: a cache never holds more than sets*ways lines.
	if err := quick.Check(func(seed uint64) bool {
		c := NewL1(8*64, 64, 2) // 8 lines total
		for i := 0; i < 100; i++ {
			seed = seed*6364136223846793005 + 1
			c.Touch(seed % 64)
		}
		count := 0
		for l := uint64(0); l < 64; l++ {
			if c.Contains(l) {
				count++
			}
		}
		return count <= 8
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetConflictsEvenWhenCacheNotFull(t *testing.T) {
	// 4 sets × 2 ways. Lines 0,4,8 all map to set 0: the third must evict
	// even though the cache holds only 2 of 8 possible lines.
	c := NewL1(8*64, 64, 2)
	c.Touch(0)
	c.Touch(4)
	_, _, evicted := c.Touch(8)
	if !evicted {
		t.Fatal("expected set-conflict eviction")
	}
}

// members collects a set the way the machine walks one.
func members(s ProcSet) []int {
	var out []int
	for p := s.Next(0); p >= 0; p = s.Next(p + 1) {
		out = append(out, p)
	}
	return out
}

func TestDirectorySharers(t *testing.T) {
	d := NewDirectory()
	d.Add(5, 0)
	d.Add(5, 2)
	d.Add(5, 3)
	if !d.HeldBy(5, 0) || d.HeldBy(5, 1) {
		t.Fatal("HeldBy wrong")
	}
	others := members(d.Line(5).Sharers.Without(2))
	if len(others) != 2 || others[0] != 0 || others[1] != 3 {
		t.Fatalf("others = %v, want [0 3]", others)
	}
	d.Remove(5, 0)
	d.Remove(5, 2)
	d.Remove(5, 3)
	if !d.Line(5).Sharers.Empty() {
		t.Fatal("sharers not empty after removals")
	}
}

func TestDirectoryRemoveAbsent(t *testing.T) {
	d := NewDirectory()
	d.Remove(9, 1) // must not panic
	if !d.Line(9).Sharers.Empty() {
		t.Fatal("phantom sharer")
	}
}

func TestDirectoryOthersEmpty(t *testing.T) {
	d := NewDirectory()
	d.Add(1, 4)
	if got := d.Line(1).Sharers.Without(4); !got.Empty() || got.Next(0) != -1 {
		t.Fatalf("others = %v, want none", members(got))
	}
}

// TestProcSetNextAscending: Next yields members in ascending order
// across the 64-bit word boundaries, and -1 past the last one.
func TestProcSetNextAscending(t *testing.T) {
	want := []int{0, 1, 63, 64, 70, 127, 128, 200, 255}
	var s ProcSet
	for i := len(want) - 1; i >= 0; i-- {
		s.Set(want[i])
	}
	got := members(s)
	if len(got) != len(want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members = %v, want %v", got, want)
		}
	}
	if s.Next(201) != 255 || s.Next(256) != -1 {
		t.Fatalf("Next(201) = %d, Next(256) = %d", s.Next(201), s.Next(256))
	}
}

// TestDirectoryRecordsNeverMove: a record fetched early is still the
// record for its line after the page index has grown many times and its
// neighbours have been written — the machine holds one across a yield.
func TestDirectoryRecordsNeverMove(t *testing.T) {
	d := NewDirectory()
	rec := d.Line(7)
	rec.Readers.Set(3)
	rec.Warm = true
	for l := uint64(0); l < 1<<16; l += 37 {
		d.Add(l, int(l%MaxProcs))
	}
	if d.Line(7) != rec || !rec.Readers.Has(3) || !rec.Warm {
		t.Fatal("record moved or lost state when the directory grew")
	}
	seen := 0
	d.ForEach(func(line uint64, r *Line) {
		if r != d.Line(line) {
			t.Fatalf("ForEach handed out a stray record for line %d", line)
		}
		seen++
	})
	if want := (1<<16+36)/37 + 1; seen != want { // every line added, plus line 7
		t.Fatalf("ForEach visited %d records, want %d", seen, want)
	}
}

// TestResetRestoresConstructedState: a Reset L1 and a Reset directory
// behave as new ones do, and reuse what they hold.
func TestResetRestoresConstructedState(t *testing.T) {
	c, fresh := NewL1(1024, 64, 2), NewL1(1024, 64, 2)
	for l := uint64(0); l < 40; l++ {
		c.Touch(l * 3)
	}
	c.Reset()
	if len(c.Lines()) != 0 || c.Hits() != 0 || c.Misses() != 0 {
		t.Fatalf("after Reset: %d lines, %d hits, %d misses", len(c.Lines()), c.Hits(), c.Misses())
	}
	for l := uint64(0); l < 40; l++ { // same replacement decisions as a new cache
		h1, v1, e1 := c.Touch(l % 7 * 8)
		h2, v2, e2 := fresh.Touch(l % 7 * 8)
		if h1 != h2 || v1 != v2 || e1 != e2 {
			t.Fatalf("touch %d: reset cache (%v,%d,%v), new cache (%v,%d,%v)", l, h1, v1, e1, h2, v2, e2)
		}
	}

	d := NewDirectory()
	for l := uint64(0); l < 5*pageLines; l += 7 {
		d.Add(l, int(l%200))
		d.Line(l).Writers.Set(3)
		d.Line(l).Warm = true
	}
	d.Reset()
	d.ForEach(func(line uint64, _ *Line) { t.Fatalf("line %d survived Reset", line) })
	allocs := testing.AllocsPerRun(1, func() {
		d.Reset()
		for l := uint64(0); l < 5*pageLines; l += pageLines {
			if rec := d.Line(l + 2*pageLines); *rec != (Line{}) { // recycled pages land elsewhere
				t.Fatalf("line %d: recycled record %+v is not blank", l, *rec)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("reuse allocated %v times, want 0", allocs)
	}
}
