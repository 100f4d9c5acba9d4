// Package mem models the simulated machine's physical memory, including
// the paper's UFO extension (§3.2, §4): two user-fault-on bits
// (fault-on-read and fault-on-write) per 64-byte line that travel with
// the data through caches and DRAM; here each line's words and its
// record — the bits, and beside them the directory state package cache
// keeps per line — are one block of its page's slab, behind one index.
// Appendix A's swap path, which keeps the bits across swap, is not
// modelled (DESIGN.md §7).
//
// Addresses are byte addresses; data is accessed at 64-bit-word
// granularity and must be 8-byte aligned. The UFO bits here are the single
// architectural copy: the cache layer keeps them coherent by requiring
// exclusive coherence permission to modify them, exactly as the paper's
// set_ufo_bits instruction does.
package mem

import "fmt"

const (
	// WordBytes is the access granularity.
	WordBytes = 8
	// LineBytes is the cache-line (and UFO-bit) granularity.
	LineBytes = 64
	// LineWords is the number of words per line.
	LineWords = LineBytes / WordBytes
	// PageBytes is the size of one page record.
	PageBytes = 4096
	// PageLines is the number of lines per page.
	PageLines = PageBytes / LineBytes
)

// UFOBits is the per-line protection state (Table 2 of the paper).
type UFOBits uint8

const (
	// UFONone means accesses proceed normally.
	UFONone UFOBits = 0
	// UFOFaultOnRead raises a fault before a read completes.
	UFOFaultOnRead UFOBits = 1 << 0
	// UFOFaultOnWrite raises a fault before a write completes.
	UFOFaultOnWrite UFOBits = 1 << 1
	// UFOFaultAll faults on any access.
	UFOFaultAll = UFOFaultOnRead | UFOFaultOnWrite
)

func (b UFOBits) String() string {
	switch b {
	case UFONone:
		return "none"
	case UFOFaultOnRead:
		return "fault-on-read"
	case UFOFaultOnWrite:
		return "fault-on-write"
	case UFOFaultAll:
		return "fault-on-read|write"
	}
	return fmt.Sprintf("UFOBits(%d)", uint8(b))
}

// LineOf returns the line index containing addr.
func LineOf(addr uint64) uint64 { return addr / LineBytes }

// LineAddr returns the base byte address of line index l.
func LineAddr(l uint64) uint64 { return l * LineBytes }

// Memory is the simulated physical memory: its words, and per line a
// record of the UFO bits and whatever its user keeps beside them (package
// cache: the directory's record). The zero value is empty; Reset sizes it.
//
// A page is one slab, materialized on first touch and reached through one
// index: PageLines line blocks, each the line's LineWords words and then
// its record — the user's words (as many as Reset says) and a flag word
// whose UFOFaultAll bits are the line's UFO bits, its other bits the
// user's — so an access finds its word in the host cache line that holds
// its record, or the one beside it (DESIGN.md §54). A nil slab reads as
// zero words and blank records; a cell configures megabytes and touches a
// fraction. Slabs are cut from chunks that double up to chunkPages, so n
// touched pages make O(log n + n/chunkPages) allocations. Reset keeps the
// slabs and the index for the next user, and a first touch blanks the
// kept slab it takes: a run pays for what it touches, not for what it or
// its predecessor configured.
type Memory struct {
	pages [][]uint64 // nil = untouched: zero words, blank records
	rec   int        // words per line record: the user's, then the flag word
	block int        // words per line block: LineWords, then the record
	size  uint64     // architectural size in bytes
	brk   uint64     // sbrk-style allocation frontier, in bytes
	free  [][]uint64 // slabs Reset kept, not yet blanked, for the next first touch
	spare []uint64   // blank words of the last chunk, never handed out; cap is its size
}

// chunkPages caps the slabs one chunk holds: a small memory pays for
// little more than it touches, a large one for one allocation per 64
// pages.
const chunkPages = 64

// New creates a memory of the given size in bytes (rounded up to a whole
// page) whose records are the flag word alone. No pages are allocated
// until first written.
func New(sizeBytes uint64) *Memory {
	m := new(Memory)
	m.Reset(sizeBytes, 0)
	return m
}

// Reset returns m to the state New(sizeBytes) builds — every word zero,
// every record blank, nothing allocated by Sbrk — with records of
// lineWords words before the flag word, by unlinking the pages that were
// materialized. It clears nothing: the slabs are kept as they are, the
// index is resized in place, and a later first touch blanks a kept slab
// before it allocates one.
func (m *Memory) Reset(sizeBytes uint64, lineWords int) {
	for _, pg := range m.pages {
		if pg != nil {
			m.free = append(m.free, pg)
		}
	}
	if sizeBytes == 0 {
		sizeBytes = PageBytes
	}
	m.rec = lineWords + 1
	m.block = LineWords + m.rec
	m.size, m.brk = 0, 0
	m.resize((sizeBytes + PageBytes - 1) / PageBytes * PageBytes)
}

// resize sets the architectural size, extending the index in place when
// its capacity allows; the new tail is nil.
func (m *Memory) resize(size uint64) {
	keep, pages := m.size/PageBytes, size/PageBytes
	m.pages = append(m.pages[:keep], make([][]uint64, pages-keep)...)
	m.size = size
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Sbrk extends the allocation frontier by n bytes (rounded up to a line)
// and returns the base address of the new region, growing physical memory
// if needed. It is the substrate for the transactional allocator.
func (m *Memory) Sbrk(n uint64) uint64 {
	n = (n + LineBytes - 1) / LineBytes * LineBytes
	base := m.brk
	m.brk += n
	for m.brk > m.size {
		m.resize(m.size * 2) // existing pages stay where they are
	}
	return base
}

// CheckAddr panics unless addr is a word-aligned address inside the
// memory. Read64 and Write64 check their address; the machine checks an
// access's before it consults anything the address indexes. The test is
// small enough to inline, and the panic is out of line.
func (m *Memory) CheckAddr(addr uint64) {
	if addr%WordBytes != 0 || addr >= m.size {
		m.badAddr(addr)
	}
}

func (m *Memory) badAddr(addr uint64) {
	if addr%WordBytes != 0 {
		panic(fmt.Sprintf("mem: unaligned access at %#x", addr))
	}
	panic(fmt.Sprintf("mem: access at %#x beyond memory size %#x", addr, m.size))
}

// materialize gives page pi a blank slab: a kept one, blanked over the
// words this width needs (one too small is dropped), else the spare
// chunk's last words, capped so that it cannot grow into its neighbour.
func (m *Memory) materialize(pi uint64) []uint64 {
	var pg []uint64
	if k := len(m.free); k > 0 {
		pg, m.free = m.free[k-1], m.free[:k-1]
	}
	need := PageLines * m.block
	if cap(pg) >= need {
		pg = pg[:need]
		clear(pg)
	} else {
		if len(m.spare) < need {
			m.spare = make([]uint64, min(max(2*cap(m.spare), need), chunkPages*need))
		}
		k := len(m.spare) - need
		pg, m.spare = m.spare[k:k+need:k+need], m.spare[:k]
	}
	m.pages[pi] = pg
	return pg
}

// Read64 returns the committed word at addr.
func (m *Memory) Read64(addr uint64) uint64 {
	m.CheckAddr(addr)
	pg := m.pages[addr/PageBytes]
	if pg == nil {
		return 0
	}
	return pg[m.word(addr)]
}

// word returns addr's index in its page's slab.
func (m *Memory) word(addr uint64) int {
	return int(addr%PageBytes/LineBytes)*m.block + int(addr%LineBytes/WordBytes)
}

// slab returns page pi's slab, materializing it unless it is untouched
// and the store about to be made is of zero, which changes nothing there:
// then it is nil. It inlines.
func (m *Memory) slab(pi uint64, zero bool) []uint64 {
	pg := m.pages[pi]
	if pg == nil && !zero {
		pg = m.materialize(pi)
	}
	return pg
}

// Write64 stores a committed word at addr.
func (m *Memory) Write64(addr, val uint64) {
	m.CheckAddr(addr)
	if pg := m.slab(addr/PageBytes, val == 0); pg != nil {
		pg[m.word(addr)] = val
	}
}

// Record returns line's record, materializing its page, capped at its own
// words; it stays valid, and names the same record, until Reset. Check an
// address of the line first.
func (m *Memory) Record(line uint64) []uint64 {
	return m.record(m.slab(line/PageLines, false), line)
}

func (m *Memory) record(pg []uint64, line uint64) []uint64 {
	off := int(line%PageLines)*m.block + LineWords
	return pg[off : off+m.rec : off+m.rec]
}

// Block returns the word at addr and its line's record, materializing
// the page: the two parts of one line block, found by one index lookup.
// Both stay valid, and name the same storage, until Reset. Check the
// address first.
func (m *Memory) Block(addr uint64) (word *uint64, rec []uint64) {
	pg := m.slab(addr/PageBytes, false)
	at := int(addr%PageBytes/LineBytes) * m.block
	return &pg[at+int(addr%LineBytes/WordBytes)], pg[at+LineWords : at+m.block : at+m.block]
}

// Records visits the record of every line of every materialized page, in
// line order (for consistency checking).
func (m *Memory) Records(f func(line uint64, rec []uint64)) {
	for pi, pg := range m.pages {
		for l := uint64(pi) * PageLines; pg != nil && l < uint64(pi+1)*PageLines; l++ {
			f(l, m.record(pg, l))
		}
	}
}

// UFOOf returns the UFO bits held in rec's flag word: the state the
// machine's fault check reads, at no simulated cost.
func UFOOf(rec []uint64) UFOBits { return UFOBits(rec[len(rec)-1]) & UFOFaultAll }

// SetUFOOf replaces the UFO bits held in rec's flag word, leaving its
// other bits as they are.
func SetUFOOf(rec []uint64, bits UFOBits) {
	rec[len(rec)-1] = rec[len(rec)-1]&^uint64(UFOFaultAll) | uint64(bits)
}

// SetUFO replaces the UFO bits for the line containing addr
// (set_ufo_bits), leaving the flag word's other bits as they are.
// Coherence actions are the cache layer's job.
func (m *Memory) SetUFO(addr uint64, bits UFOBits) {
	if pg := m.slab(addr/PageBytes, bits == UFONone); pg != nil {
		SetUFOOf(m.record(pg, LineOf(addr)), bits)
	}
}

// Faults reports whether an access of the given kind to a line holding
// bits would raise a UFO fault, assuming UFO faults are enabled on the
// accessing thread.
func (b UFOBits) Faults(write bool) bool {
	if write {
		return b&UFOFaultOnWrite != 0
	}
	return b&UFOFaultOnRead != 0
}
