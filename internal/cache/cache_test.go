package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestGeometry(t *testing.T) {
	c := NewL1(32*1024, 64, 4)
	if c.Sets() != 128 || c.Ways() != 4 {
		t.Fatalf("geometry = %d sets × %d ways, want 128×4", c.Sets(), c.Ways())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, g := range [][3]int{
		{0, 64, 4},       // no capacity
		{5 * 64, 64, 2},  // lines not divisible by ways
		{3 * 64, 64, 1},  // 3 sets: not a power of two, so no set mask
		{24 * 64, 64, 4}, // 6 sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewL1%v built a cache, want a panic", g)
				}
			}()
			NewL1(g[0], g[1], g[2])
		}()
	}
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
	if !d.Line(5).Sharers().AnyBut(2) {
		t.Fatal("AnyBut(2) = false with 0 and 3 present")
	}
	d.Remove(5, 2)
	others := members(d.Line(5).Sharers())
	if len(others) != 2 || others[0] != 0 || others[1] != 3 {
		t.Fatalf("others = %v, want [0 3]", others)
	}
	d.Remove(5, 0)
	d.Remove(5, 2)
	d.Remove(5, 3)
	if !d.Line(5).Sharers().Empty() {
		t.Fatal("sharers not empty after removals")
	}
}

func TestDirectoryRemoveAbsent(t *testing.T) {
	d := NewDirectory()
	d.Remove(9, 1) // must not panic
	if !d.Line(9).Sharers().Empty() {
		t.Fatal("phantom sharer")
	}
}

func TestDirectoryOthersEmpty(t *testing.T) {
	d := NewDirectory()
	d.Add(1, 4)
	if got := d.Line(1).Sharers(); got.AnyBut(4) || got.Next(5) != -1 {
		t.Fatalf("sharers = %v, want none but 4", members(got))
	}
}

// TestProcSetNextAscending: Next yields members in ascending order
// across the 64-bit word boundaries, and -1 past the last one.
func TestProcSetNextAscending(t *testing.T) {
	want := []int{0, 1, 63, 64, 70, 127, 128, 200, 255}
	s := make(ProcSet, MaxProcs/64)
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
	rec.Readers().Set(3)
	rec.SetWarm()
	for l := uint64(0); l < 1<<16; l += 37 {
		d.Add(l, int(l%MaxProcs))
	}
	if &d.Line(7)[0] != &rec[0] || !rec.Readers().Has(3) || !rec.Warm() {
		t.Fatal("record moved or lost state when the directory grew")
	}
	seen := 0
	d.ForEach(func(line uint64, r Line) {
		if &r[0] != &d.Line(line)[0] {
			t.Fatalf("ForEach handed out a stray record for line %d", line)
		}
		seen++
	})
	if want := (1<<16+36)/37 + 1; seen != want { // every line added, plus line 7
		t.Fatalf("ForEach visited %d records, want %d", seen, want)
	}
}

// TestResetRestoresConstructedState: a Reset L1, and a directory over a
// Reset memory, behave as new ones do, and reuse what they hold.
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

	d, m := over(MaxProcs)
	for l := uint64(0); l < 5*mem.PageLines; l += 7 {
		d.Add(l, int(l%200))
		d.Line(l).Writers().Set(3)
		d.Line(l).SetWarm()
	}
	m.Reset(ownBytes, RecordWords(MaxProcs))
	d.ForEach(func(line uint64, _ Line) { t.Fatalf("line %d survived Reset", line) })
	allocs := testing.AllocsPerRun(1, func() {
		m.Reset(ownBytes, RecordWords(MaxProcs))
		for l := uint64(0); l < 5*mem.PageLines; l += mem.PageLines {
			if rec := d.Line(l + 2*mem.PageLines); slices.Max(rec) != 0 { // recycled pages land elsewhere
				t.Fatalf("line %d: recycled record %v is not blank", l, rec)
			}
		}
	})
	if allocs > raceSlack {
		t.Fatalf("reuse allocated %v times, want %d", allocs, raceSlack)
	}
}

// over returns a directory for procs processors over a memory of its
// own, and the memory, whose Reset empties it.
func over(procs int) (Directory, *mem.Memory) {
	m := new(mem.Memory)
	m.Reset(ownBytes, RecordWords(procs))
	return Over(m), m
}

// TestProcSetAtEveryWidth checks a record's three masks against a
// map[int]bool reference at processor counts on both sides of every word
// boundary, and that filling every bit of one record leaves its
// neighbours in the page untouched: the stride arithmetic is the only
// thing that keeps one line's bits out of another's.
func TestProcSetAtEveryWidth(t *testing.T) {
	for _, procs := range []int{1, 63, 64, 65, 128, 129, 256} {
		d, _ := over(procs)
		const line = 5*mem.PageLines + 17
		rec := d.Line(line)
		if want := 3*((procs+63)/64) + 1; len(rec) != want {
			t.Fatalf("procs=%d: record is %d words, want %d", procs, len(rec), want)
		}
		for name, s := range map[string]ProcSet{"sharers": rec.Sharers(), "readers": rec.Readers(), "writers": rec.Writers()} {
			ref := map[int]bool{}
			check := func(step string) {
				t.Helper()
				var want []int
				for p := 0; p < procs; p++ {
					if s.Has(p) != ref[p] {
						t.Fatalf("procs=%d %s after %s: Has(%d) = %v", procs, name, step, p, s.Has(p))
					}
					if ref[p] {
						want = append(want, p)
					}
					if any := len(ref) > 1 || len(ref) == 1 && !ref[p]; s.AnyBut(p) != any {
						t.Fatalf("procs=%d %s after %s: AnyBut(%d) = %v with members %v", procs, name, step, p, !any, ref)
					}
				}
				if got := members(s); !slices.Equal(got, want) || s.Empty() != (len(want) == 0) {
					t.Fatalf("procs=%d %s after %s: members %v (Empty %v), want %v", procs, name, step, got, s.Empty(), want)
				}
			}
			check("nothing")
			for p := procs - 1; p >= 0; p -= 1 + p%7 { // descending, uneven steps
				s.Set(p)
				ref[p] = true
			}
			check("sets")
			for p := range ref {
				if p%3 == 0 {
					s.Clear(p)
					delete(ref, p)
				}
			}
			check("clears")
			for p := 0; p < procs; p++ {
				s.Set(p)
				ref[p] = true
			}
			check("filling every bit")
		}
		rec.SetWarm()
		for _, l := range []uint64{line - 1, line + 1} {
			if n := d.Line(l); slices.Max(n) != 0 {
				t.Fatalf("procs=%d: filling line %d wrote %v into line %d", procs, line, n, l)
			}
		}
		seen := 0
		d.ForEach(func(l uint64, r Line) {
			if l != line || &r[0] != &rec[0] {
				t.Fatalf("procs=%d: ForEach visited line %d", procs, l)
			}
			seen++
		})
		if seen != 1 {
			t.Fatalf("procs=%d: ForEach visited %d records, want 1", procs, seen)
		}
	}
}

// TestDirectoryResetChangesWidth: a record read after its memory is
// Reset to another processor count, on another page, is as wide as that
// count asks and blank whatever the old one left where — every mask word
// and the flag word of every record set, bits past the machine's
// processors included. (Which slabs serve which width is mem's
// TestResetChangesWidth.)
func TestDirectoryResetChangesWidth(t *testing.T) {
	d, m := over(8)
	// fill resets d for procs processors, requires the four pages of
	// records from line first on to read blank, then dirties every word.
	fill := func(procs int, first uint64) {
		m.Reset(ownBytes, RecordWords(procs))
		for l := first; l < first+4*mem.PageLines; l++ {
			rec := d.Line(l)
			if len(rec) != RecordWords(procs)+1 || slices.Max(rec) != 0 {
				t.Fatalf("procs=%d: line %d reads %v after Reset", procs, l, rec)
			}
			for i := range rec {
				rec[i] = ^uint64(0)
			}
		}
	}
	for i, procs := range []int{8, 130, 8, 70, 130} {
		fill(procs, uint64(i)*mem.PageLines)
	}
}

// TestNewL1sShareNoWays: caches built in one call behave as caches
// built one at a time, and filling every way of one leaves its slab
// neighbours empty.
func TestNewL1sShareNoWays(t *testing.T) {
	cs := NewL1s(3, 1024, 64, 2)
	fresh := NewL1(1024, 64, 2)
	for l := uint64(0); l < 64; l++ { // 16 lines, every way of the middle cache, evicting as it goes
		h1, v1, e1 := cs[1].Touch(l * 5)
		h2, v2, e2 := fresh.Touch(l * 5)
		if h1 != h2 || v1 != v2 || e1 != e2 {
			t.Fatalf("touch %d: batched cache (%v,%d,%v), lone cache (%v,%d,%v)", l, h1, v1, e1, h2, v2, e2)
		}
	}
	if n := len(cs[1].Lines()); n != 16 {
		t.Fatalf("the filled cache holds %d lines, want 16", n)
	}
	for _, i := range []int{0, 2} {
		if got := cs[i].Lines(); len(got) != 0 || cs[i].Hits()+cs[i].Misses() != 0 {
			t.Fatalf("filling cache 1 left lines %v in cache %d", got, i)
		}
	}
}
