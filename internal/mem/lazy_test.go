package mem

import "testing"

// These tests pin the lazy page-granular storage semantics: a nil page
// must be indistinguishable from an explicitly zeroed one through every
// accessor, and pages must materialize only when a write actually needs
// to record non-zero state.

// materialized counts the page records m holds.
func materialized(m *Memory) (n int) {
	for _, pg := range m.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

func TestUntouchedPagesReadZero(t *testing.T) {
	m := New(8 * PageBytes)
	for _, addr := range []uint64{0, PageBytes, 3*PageBytes + 512, 7*PageBytes + PageBytes - WordBytes} {
		if v := m.Read64(addr); v != 0 {
			t.Fatalf("Read64(%#x) = %d on untouched memory", addr, v)
		}
		if b := m.UFO(addr); b != UFONone {
			t.Fatalf("UFO(%#x) = %v on untouched memory", addr, b)
		}
		if m.Faults(addr, false) || m.Faults(addr, true) {
			t.Fatalf("Faults(%#x) true on untouched memory", addr)
		}
	}
}

func TestZeroWriteDoesNotMaterialize(t *testing.T) {
	m := New(4 * PageBytes)
	m.Write64(PageBytes+64, 0)
	m.SetUFO(PageBytes+64, UFONone)
	if n := materialized(m); n != 0 {
		t.Fatalf("a zero write and a UFONone install materialized %d pages", n)
	}
	if m.Read64(PageBytes+64) != 0 || m.UFO(PageBytes+64) != UFONone {
		t.Fatal("the line no longer reads zero and clear")
	}
}

func TestNonZeroWriteMaterializesOnlyItsPage(t *testing.T) {
	m := New(4 * PageBytes)
	m.Write64(2*PageBytes+8, 42)
	for i, pg := range m.pages {
		if (pg != nil) != (i == 2) {
			t.Fatalf("page %d materialized=%v after single write to page 2", i, pg != nil)
		}
	}
	if v := m.Read64(2*PageBytes + 8); v != 42 {
		t.Fatalf("read back %d, want 42", v)
	}
	// The rest of the materialized page must read zero.
	if v := m.Read64(2 * PageBytes); v != 0 {
		t.Fatalf("neighbor word on materialized page reads %d", v)
	}
	// Overwriting with zero keeps the page (no demotion) and reads zero.
	m.Write64(2*PageBytes+8, 0)
	if v := m.Read64(2*PageBytes + 8); v != 0 {
		t.Fatalf("after zero overwrite, read %d", v)
	}
}

// TestUFOWriteMaterializesUFOPageOnly: the bits travel with the data, so
// a UFO install on untouched memory materializes the one page record its
// line is in — by the same path a data write takes — and leaves that
// page's words, and every other line's bits, as they read before.
func TestUFOWriteMaterializesUFOPageOnly(t *testing.T) {
	m := New(4 * PageBytes)
	m.SetUFO(PageBytes+LineBytes, UFOFaultOnRead)
	if materialized(m) != 1 || m.pages[1] == nil {
		t.Fatalf("SetUFO materialized %d pages, want page 1 alone", materialized(m))
	}
	for addr := uint64(0); addr < m.Size(); addr += WordBytes {
		want := UFONone
		if LineOf(addr) == LineOf(PageBytes+LineBytes) {
			want = UFOFaultOnRead
		}
		if v, b := m.Read64(addr), m.UFO(addr); v != 0 || b != want {
			t.Fatalf("%#x reads %d with bits %v, want 0 with %v", addr, v, b, want)
		}
	}
	if !m.Faults(PageBytes+LineBytes, false) || m.Faults(PageBytes+LineBytes, true) {
		t.Fatal("Faults disagrees with fault-on-read")
	}
	// Reset hands the record back blank: the next user of it, at another
	// address, sees neither the bits nor a stray word.
	m.Write64(PageBytes+8, 9)
	m.Reset(4 * PageBytes)
	if materialized(m) != 0 || len(m.free) != 1 {
		t.Fatalf("Reset left %d pages materialized and kept %d records, want 0 and 1", materialized(m), len(m.free))
	}
	m.Write64(3*PageBytes, 1)
	for addr := uint64(0); addr < m.Size(); addr += WordBytes {
		if v, b := m.Read64(addr), m.UFO(addr); v != 0 && addr != 3*PageBytes || b != UFONone {
			t.Fatalf("after Reset %#x reads %d with bits %v", addr, v, b)
		}
	}
}

func TestGrowSharesMaterializedPages(t *testing.T) {
	m := New(2 * PageBytes)
	m.Write64(0, 7)
	m.SetUFO(64, UFOFaultOnWrite)
	before := m.pages[0]
	m.Sbrk(8 * PageBytes) // forces grow
	if m.Size() < 8*PageBytes {
		t.Fatalf("size %d after growth", m.Size())
	}
	if m.pages[0] != before {
		t.Fatal("grow copied a page instead of sharing it")
	}
	if v := m.Read64(0); v != 7 {
		t.Fatalf("data lost across grow: %d", v)
	}
	if b := m.UFO(64); b != UFOFaultOnWrite {
		t.Fatalf("UFO bits lost across grow: %v", b)
	}
	// New tail is lazily untouched.
	if v := m.Read64(m.Size() - WordBytes); v != 0 {
		t.Fatalf("grown tail reads %d", v)
	}
}

func TestNewRoundsUpToWholePages(t *testing.T) {
	m := New(PageBytes + 1)
	if m.Size() != 2*PageBytes {
		t.Fatalf("size %d, want %d", m.Size(), 2*PageBytes)
	}
	if m2 := New(0); m2.Size() != PageBytes {
		t.Fatalf("zero-size memory rounds to %d", m2.Size())
	}
}

// TestResetBlanksAndReuses: a Reset memory is indistinguishable from a
// new one of the size asked for — whatever it held, however far Sbrk
// grew it — and its next first touches and its next growth allocate
// nothing: recycled pages come back zeroed at whichever index takes
// them, and the indexes grow in place.
func TestResetBlanksAndReuses(t *testing.T) {
	m := New(4 * PageBytes)
	m.Sbrk(13 * PageBytes) // grows to 16 pages
	for pg := uint64(0); pg < 13; pg++ {
		m.Write64(pg*PageBytes+8*pg, ^pg)
		m.SetUFO(pg*PageBytes+LineBytes*pg, UFOFaultAll)
	}
	m.Reset(2 * PageBytes) // a later user asks for less
	if m.Size() != 2*PageBytes || m.Sbrk(0) != 0 {
		t.Fatalf("after Reset: size %d, brk %d; want %d, 0", m.Size(), m.Sbrk(0), 2*PageBytes)
	}
	if len(m.pages) != 2 || cap(m.pages) < 16 {
		t.Fatalf("index: len %d cap %d; want the 2 pages asked for over the kept capacity", len(m.pages), cap(m.pages))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an access past the new, smaller size did not panic")
			}
		}()
		m.Read64(2 * PageBytes)
	}()
	allocs := testing.AllocsPerRun(1, func() {
		m.Reset(2 * PageBytes)
		m.Sbrk(16 * PageBytes) // back past the old size, in place
		for pg := uint64(3); pg < 16; pg++ {
			m.Write64(pg*PageBytes, 1) // first touch takes a recycled page
			m.SetUFO(pg*PageBytes, UFOFaultOnRead)
		}
	})
	if allocs > raceSlack {
		t.Fatalf("reuse allocated %v times, want %d", allocs, raceSlack)
	}
	for addr := uint64(0); addr < m.Size(); addr += WordBytes {
		want, wantUFO := uint64(0), UFONone
		if pg := addr / PageBytes; pg >= 3 && pg < 16 {
			if addr%PageBytes == 0 {
				want = 1
			}
			if addr%PageBytes < LineBytes {
				wantUFO = UFOFaultOnRead
			}
		}
		if got := m.Read64(addr); got != want {
			t.Fatalf("Read64(%#x) = %#x, want %d: a recycled page kept old data", addr, got, want)
		}
		if got := m.UFO(addr); got != wantUFO {
			t.Fatalf("UFO(%#x) = %v, want %v: a recycled UFO page kept old bits", addr, got, wantUFO)
		}
	}
}
