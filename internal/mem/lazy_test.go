package mem

import (
	"runtime"
	"testing"
)

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
	// Reset keeps the record: the next user of it, at another address and
	// by either kind of first touch, sees none of the words or bits the
	// last one left, although every one of them was set.
	for _, c := range []struct {
		dirty, touch uint64 // the record's page before Reset, and after
		bits         UFOBits
	}{{1, 3, UFONone}, {3, 0, UFOFaultOnWrite}} {
		for a := c.dirty * PageBytes; a < (c.dirty+1)*PageBytes; a += WordBytes {
			m.Write64(a, ^a)
			m.SetUFO(a, UFOFaultAll)
		}
		m.Reset(4 * PageBytes)
		if materialized(m) != 0 || len(m.free) != 1 {
			t.Fatalf("Reset left %d pages materialized and kept %d records, want 0 and 1", materialized(m), len(m.free))
		}
		touched := c.touch * PageBytes
		if c.bits == UFONone {
			m.Write64(touched, 1)
		} else {
			m.SetUFO(touched, c.bits)
		}
		if m.pages[c.touch] == nil {
			t.Fatalf("the first touch of page %d materialized nothing", c.touch)
		}
		for addr := uint64(0); addr < m.Size(); addr += WordBytes {
			wantV, wantB := uint64(0), UFONone
			if addr == touched && c.bits == UFONone {
				wantV = 1
			}
			if LineOf(addr) == LineOf(touched) {
				wantB = c.bits
			}
			if v, b := m.Read64(addr), m.UFO(addr); v != wantV || b != wantB {
				t.Fatalf("after Reset %#x reads %d with bits %v, want %d with %v", addr, v, b, wantV, wantB)
			}
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

// TestChunkedRecordsAreBlank: a first touch takes its record from the
// free list, else from the spare chunk, else from a new chunk; across two
// Resets, a record from each of the three reads as all-zero words and
// clear bits, though every word and bit of every record was set before
// the Reset, and no record is handed out twice.
func TestChunkedRecordsAreBlank(t *testing.T) {
	m := New(PageBytes)
	var fromFree, fromSpare, fromChunk int
	for _, touch := range []uint64{5, 12, 40} { // 7 records in chunks of 1, 2, 4; then 8; then 16 and 32
		m.Reset(64 * PageBytes)
		holder := map[*page]uint64{}
		for pi := uint64(0); pi < touch; pi++ {
			switch {
			case len(m.free) > 0:
				fromFree++
			case len(m.spare) > 0:
				fromSpare++
			default:
				fromChunk++
			}
			base := pi * PageBytes
			if pi%2 == 0 { // either kind of first touch
				m.SetUFO(base, UFOFaultOnRead)
			} else {
				m.Write64(base, 1)
			}
			pg := m.pages[pi]
			if q, ok := holder[pg]; ok {
				t.Fatalf("touch %d: page %d was given the record page %d holds", touch, pi, q)
			}
			holder[pg] = pi
			want := page{}
			if pi%2 == 0 {
				want.ufo[0] = UFOFaultOnRead
			} else {
				want.words[0] = 1
			}
			if *pg != want {
				t.Fatalf("touch %d, page %d: the first touch found a record that was not blank", touch, pi)
			}
			for a := base; a < base+PageBytes; a += WordBytes {
				m.Write64(a, ^a)
				m.SetUFO(a, UFOFaultAll)
			}
		}
	}
	if fromFree == 0 || fromSpare == 0 || fromChunk == 0 {
		t.Fatalf("records came %d from the free list, %d from the spare chunk, %d from new chunks: want each source", fromFree, fromSpare, fromChunk)
	}
}

// TestFirstTouchesAllocateInChunks: a new memory that touches 1,000
// pages pays for its index and one chunk per doubling up to chunkPages,
// then one per 64 pages — not one allocation per page — and for no more
// bytes than 1,000 records, each rounded up to its size class, cost.
func TestFirstTouchesAllocateInChunks(t *testing.T) {
	const pages = 1000
	touch := func() {
		m := New(pages * PageBytes)
		for pi := uint64(0); pi < pages; pi++ {
			m.Write64(pi*PageBytes, 1)
		}
	}
	if n := testing.AllocsPerRun(1, touch); n > 24+raceSlack {
		t.Fatalf("touching %d pages allocated %v times, want at most 24", pages, n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	touch()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(pages*4864); got >= limit {
		t.Fatalf("touching %d pages allocated %d bytes, want under %d", pages, got, limit)
	}
}
