package mem

import (
	"runtime"
	"slices"
	"testing"
)

// These tests pin the lazy page-granular storage semantics: a nil page
// must be indistinguishable from an explicitly zeroed one through every
// accessor, and pages must materialize only when a write actually needs
// to record non-zero state, or a line's record is asked for.

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
		if b := ufoAt(m, addr); b != UFONone {
			t.Fatalf("UFO(%#x) = %v on untouched memory", addr, b)
		}
		if ufoAt(m, addr).Faults(false) || ufoAt(m, addr).Faults(true) {
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
	if m.Read64(PageBytes+64) != 0 || ufoAt(m, PageBytes+64) != UFONone {
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
		if v, b := m.Read64(addr), ufoAt(m, addr); v != 0 || b != want {
			t.Fatalf("%#x reads %d with bits %v, want 0 with %v", addr, v, b, want)
		}
	}
	if !ufoAt(m, PageBytes+LineBytes).Faults(false) || ufoAt(m, PageBytes+LineBytes).Faults(true) {
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
		m.Reset(4*PageBytes, 0)
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
			if v, b := m.Read64(addr), ufoAt(m, addr); v != wantV || b != wantB {
				t.Fatalf("after Reset %#x reads %d with bits %v, want %d with %v", addr, v, b, wantV, wantB)
			}
		}
	}
}

func TestGrowSharesMaterializedPages(t *testing.T) {
	m := New(2 * PageBytes)
	m.Write64(0, 7)
	m.SetUFO(64, UFOFaultOnWrite)
	before := &m.pages[0][0]
	m.Sbrk(8 * PageBytes) // forces grow
	if m.Size() < 8*PageBytes {
		t.Fatalf("size %d after growth", m.Size())
	}
	if &m.pages[0][0] != before {
		t.Fatal("grow copied a page instead of sharing it")
	}
	if v := m.Read64(0); v != 7 {
		t.Fatalf("data lost across grow: %d", v)
	}
	if b := ufoAt(m, 64); b != UFOFaultOnWrite {
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
	m.Reset(2*PageBytes, 0) // a later user asks for less
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
		m.Reset(2*PageBytes, 0)
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
		if got := ufoAt(m, addr); got != wantUFO {
			t.Fatalf("UFO(%#x) = %v, want %v: a recycled UFO page kept old bits", addr, got, wantUFO)
		}
	}
}

// TestChunkedRecordsAreBlank: a first touch takes its slab from the
// free list, else from the spare chunk, else from a new chunk; across two
// Resets, a slab from each of the three is PageLines line blocks of zero
// words and blank records, though every word of every slab was set
// before the Reset, and no slab is handed out twice.
func TestChunkedRecordsAreBlank(t *testing.T) {
	m := New(PageBytes)
	var fromFree, fromSpare, fromChunk int
	for _, touch := range []uint64{5, 12, 40} { // 7 slabs in chunks of 1, 2, 4; then 8; then 16 and 32
		m.Reset(64*PageBytes, 3)
		holder := map[*uint64]uint64{}
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
			switch pi % 3 { // each kind of first touch
			case 0:
				m.SetUFO(base, UFOFaultOnRead)
			case 1:
				m.Write64(base, 1)
			default:
				m.Record(LineOf(base))
			}
			pg := m.pages[pi]
			if q, ok := holder[&pg[0]]; ok {
				t.Fatalf("touch %d: page %d was given the slab page %d holds", touch, pi, q)
			}
			holder[&pg[0]] = pi
			want := make([]uint64, PageLines*(LineWords+4))
			switch pi % 3 {
			case 0:
				want[LineWords+3] = uint64(UFOFaultOnRead) // line 0's flag word
			case 1:
				want[0] = 1
			}
			if !slices.Equal(pg, want) {
				t.Fatalf("touch %d, page %d: the first touch found a slab that was not blank", touch, pi)
			}
			for i := range pg {
				pg[i] = ^uint64(0)
			}
		}
	}
	if fromFree == 0 || fromSpare == 0 || fromChunk == 0 {
		t.Fatalf("slabs came %d from the free list, %d from the spare chunk, %d from new chunks: want each source", fromFree, fromSpare, fromChunk)
	}
}

// TestFirstTouchesAllocateInChunks: a new memory that touches 1,000
// pages pays for its index and one chunk per doubling up to chunkPages,
// then one per 64 pages — not one allocation per page — and for no more
// bytes than 1,000 old-style page records (words and a byte of UFO bits
// per line, rounded up to their size class) cost.
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

// TestSlabsAreCutApart: a slab is cut from its chunk capped at its own
// length, and a record from its slab capped at its own, so writing every
// word of one slab, and appending past its end or past a record's, leaves
// its chunk neighbours blank.
func TestSlabsAreCutApart(t *testing.T) {
	m := New(8 * PageBytes)
	m.Reset(8*PageBytes, 3)
	for l := uint64(0); l < 7*PageLines; l += PageLines { // chunks of 1, 2 and 4 slabs
		m.Record(l)
	}
	slab := m.pages[2]
	if len(slab) != cap(slab) {
		t.Fatalf("slab of %d words has capacity %d", len(slab), cap(slab))
	}
	rec := m.Record(3*PageLines - 1) // the slab's last record
	if len(rec) != 4 || cap(rec) != 4 || &rec[3] != &slab[len(slab)-1] {
		t.Fatalf("the last record of a slab is %d words of capacity %d, not the slab's last 4", len(rec), cap(rec))
	}
	_ = append(m.Record(2*PageLines), ^uint64(0)) // into the next line's words, were it not capped
	if slices.Max(slab) != 0 {
		t.Fatal("appending to a record wrote into the next line block")
	}
	for i := range slab {
		slab[i] = ^uint64(0)
	}
	_ = append(slab, ^uint64(0))
	for pi, other := range m.pages {
		if pi != 2 && other != nil && slices.Max(other) != 0 {
			t.Fatalf("writing slab 2 wrote into slab %d", pi)
		}
	}
}

// TestSpareOutlivesStrideChanges: a memory moved from 13-word records to
// 4-word ones and back hands out blank slabs of the width asked for, from
// kept slabs, the spare chunk and new chunks alike, though every word of
// every slab was set before each Reset.
func TestSpareOutlivesStrideChanges(t *testing.T) {
	m := New(PageBytes)
	for round, c := range []struct{ lineWords, pages int }{{12, 3}, {3, 9}, {12, 6}, {3, 20}} {
		m.Reset(32*PageBytes, c.lineWords)
		for pi := 0; pi < c.pages; pi++ {
			l := uint64(pi*PageLines + round) // each round a different line of the page first
			if rec := m.Record(l); len(rec) != c.lineWords+1 {
				t.Fatalf("round %d: a %d-word record at width %d", round, len(rec), c.lineWords)
			}
			slab := m.pages[pi]
			if len(slab) != PageLines*(LineWords+c.lineWords+1) || slices.Max(slab) != 0 {
				t.Fatalf("round %d, width %d: page %d's slab is %d words and not blank", round, c.lineWords, pi, len(slab))
			}
			for i := range slab {
				slab[i] = ^uint64(0)
			}
		}
	}
}

// TestResetChangesWidth: slabs used at one width serve any width they are
// big enough for, and one too small is dropped, not resliced; a record
// read at the new width, on another page, is blank whatever the old one
// left where.
func TestResetChangesWidth(t *testing.T) {
	m := New(PageBytes)
	// fill resets m to records of lineWords words, requires the four
	// pages of records from line first on to read blank, then dirties
	// every word of their slabs.
	fill := func(lineWords int, first uint64) {
		m.Reset(16*PageBytes, lineWords)
		for l := first; l < first+4*PageLines; l++ {
			if rec := m.Record(l); slices.Max(rec) != 0 {
				t.Fatalf("width %d: line %d reads %v after Reset", lineWords, l, rec)
			}
		}
		for pi := first / PageLines; pi < first/PageLines+4; pi++ {
			for i := range m.pages[pi] {
				m.pages[pi][i] = ^uint64(0)
			}
		}
	}
	fill(6, 0)
	fill(9, PageLines) // the 6-wide slabs are too small: dropped, not resliced
	if len(m.free) != 0 {
		t.Fatalf("%d slabs too small for the new width were kept", len(m.free))
	}
	for i, lineWords := range []int{6, 3, 9} {
		first := uint64(i+2) * PageLines
		fill(lineWords, first)
		if got, want := cap(m.pages[first/PageLines]), PageLines*(LineWords+9+1); got != want {
			t.Fatalf("width %d: page %d is a slab of %d words, not a reused 9-wide one of %d", lineWords, first/PageLines, got, want)
		}
	}
}

// TestUFOBitsShareTheFlagWord: SetUFO changes the flag word's UFO bits
// alone, and the record's other words and the flag word's other bits are
// the user's: no store to them moves the UFO bits.
func TestUFOBitsShareTheFlagWord(t *testing.T) {
	m := New(PageBytes)
	m.Reset(PageBytes, 3)
	rec := m.Record(5)
	for i := range rec {
		rec[i] = ^uint64(0) &^ uint64(UFOFaultAll)
	}
	if ufoAt(m, 5*LineBytes) != UFONone {
		t.Fatalf("the user's bits read as UFO bits %v", ufoAt(m, 5*LineBytes))
	}
	for i, b := range []UFOBits{UFOFaultOnWrite, UFOFaultAll, UFONone, UFOFaultOnRead, UFOFaultAll, UFONone} {
		if i%2 == 0 {
			m.SetUFO(5*LineBytes+8, b)
		} else {
			SetUFOOf(rec, b)
		}
		if got := UFOOf(rec); got != b || ufoAt(m, 5*LineBytes) != b {
			t.Fatalf("SetUFO(%v) reads back %v", b, got)
		}
		if rec[0] != ^uint64(UFOFaultAll) || rec[3]|uint64(UFOFaultAll) != ^uint64(0) {
			t.Fatalf("SetUFO(%v) moved the user's bits: %x", b, rec)
		}
	}
}

// TestLineBlocksDoNotAlias: at record widths 1, 4 and 13, every word of
// a page and every word of its records is its own storage, whichever way
// it is reached — Read64 and Write64, Record, UFOOf and SetUFO, or Block,
// the word and record an access takes from one lookup.
func TestLineBlocksDoNotAlias(t *testing.T) {
	for _, rec := range []int{1, 4, 13} {
		m := New(PageBytes)
		m.Reset(3*PageBytes, rec-1)
		const base = PageBytes // a page with neighbours on both sides
		wordVal := func(addr uint64) uint64 { return addr<<8 | 0x5a }
		recVal := func(line uint64, i int) uint64 { return (line<<8 | uint64(i)) << 2 } // UFO bits clear
		for addr := uint64(base); addr < 2*PageBytes; addr += WordBytes {
			m.Write64(addr, wordVal(addr))
		}
		for line := LineOf(base); line < LineOf(2*PageBytes); line++ {
			r := m.Record(line)
			if len(r) != rec {
				t.Fatalf("width %d: a %d-word record", rec, len(r))
			}
			for i := range r {
				r[i] = recVal(line, i)
			}
			m.SetUFO(LineAddr(line), UFOBits(line%4))
		}
		for addr := uint64(0); addr < m.Size(); addr += WordBytes {
			line, in := LineOf(addr), addr >= base && addr < 2*PageBytes
			wantV, wantB := uint64(0), UFONone
			if in {
				wantV, wantB = wordVal(addr), UFOBits(line%4)
			}
			if v, b := m.Read64(addr), ufoAt(m, addr); v != wantV || b != wantB {
				t.Fatalf("width %d: %#x reads %#x with bits %v, want %#x with %v", rec, addr, v, b, wantV, wantB)
			}
			if !in {
				continue
			}
			word, r := m.Block(addr)
			if *word != wantV || &r[0] != &m.Record(line)[0] || len(r) != rec || cap(r) != rec {
				t.Fatalf("width %d: Block(%#x) gives word %#x and a %d-word record of capacity %d, not Read64's word and Record's record", rec, addr, *word, len(r), cap(r))
			}
			for i := range r {
				want := recVal(line, i)
				if i == rec-1 {
					want |= uint64(wantB)
				}
				if r[i] != want {
					t.Fatalf("width %d: line %d record word %d is %#x, want %#x", rec, line, i, r[i], want)
				}
			}
		}
		// A store through Block's word is a store to the word at addr alone.
		word, _ := m.Block(base + 3*WordBytes)
		*word = 7
		if m.Read64(base+3*WordBytes) != 7 || m.Read64(base+2*WordBytes) != wordVal(base+2*WordBytes) || m.Read64(base+4*WordBytes) != wordVal(base+4*WordBytes) {
			t.Fatalf("width %d: a store through Block's word is not Read64's word alone", rec)
		}
	}
}
