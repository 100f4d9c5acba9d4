// Package mem models the simulated machine's physical memory, including
// the paper's UFO extension (§3.2, §4): two user-fault-on bits
// (fault-on-read and fault-on-write) per 64-byte line that travel with
// the data through caches and DRAM; here a page's words and its lines'
// bits are one record behind one index. Appendix A's swap path, which
// keeps the bits across swap, is not modelled (DESIGN.md §7).
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

const (
	// PageWords is the number of words per page.
	PageWords = PageBytes / WordBytes
)

// Memory is the simulated physical memory plus per-line UFO bit storage.
// The zero value is not usable; call New.
//
// Storage is page-granular and materialized on first touch: a page's
// words and the UFO bits of its lines sit in one record, reached through
// one index. A nil record reads as all-zero words and all-clear UFO bits
// and is materialized only on the first write that needs it. Simulations
// configure tens of megabytes of architectural memory per sweep cell but
// touch a small fraction of it. Records are allocated in chunks that
// double from one record up to chunkPages, so a memory that touches n
// pages makes O(log n + n/chunkPages) allocations, not n.
//
// A Memory can be reused: Reset keeps the records its last user touched,
// and the index, for the next one, and a first touch blanks the kept
// record it takes, so a run on a reused Memory pays for what it touches
// and not for what it configures or what its predecessor touched.
type Memory struct {
	pages []*page // nil = untouched: zero words, clear bits
	size  uint64  // architectural size in bytes
	brk   uint64  // sbrk-style allocation frontier, in bytes
	free  []*page // kept records, not yet blanked, awaiting a first touch
	spare []page  // blank records of the last chunk, never handed out; cap is its size
}

// chunkPages caps the records one chunk holds: a small memory pays for
// little more than it touches, a large one for one allocation per 64
// pages.
const chunkPages = 64

// page is one page of memory: the UFO bits travel with the data.
type page struct {
	words [PageWords]uint64
	ufo   [PageLines]UFOBits
}

// New creates a memory of the given size in bytes (rounded up to a whole
// page). No pages are allocated until first written.
func New(sizeBytes uint64) *Memory {
	m := new(Memory)
	m.Reset(sizeBytes)
	return m
}

// Reset returns m to the state New(sizeBytes) builds — every word zero,
// every UFO bit clear, nothing allocated by Sbrk — by unlinking the pages
// that were materialized. It clears nothing: the records are kept as
// they are, the index is resized in place, and a later first touch
// blanks a kept record before it allocates one.
func (m *Memory) Reset(sizeBytes uint64) {
	for _, pg := range m.pages {
		if pg != nil {
			m.free = append(m.free, pg)
		}
	}
	if sizeBytes == 0 {
		sizeBytes = PageBytes
	}
	m.size, m.brk = 0, 0
	m.resize((sizeBytes + PageBytes - 1) / PageBytes * PageBytes)
}

// resize sets the architectural size, extending the index in place when
// its capacity allows; the new tail is nil.
func (m *Memory) resize(size uint64) {
	keep, pages := m.size/PageBytes, size/PageBytes
	m.pages = append(m.pages[:keep], make([]*page, pages-keep)...)
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

// materialize gives page pi a blank record: one that Reset kept, blanked
// here, just before the write that needs it, else the next of the spare
// chunk's, which a new chunk twice the last one's size refills.
func (m *Memory) materialize(pi uint64) *page {
	var pg *page
	if k := len(m.free); k > 0 {
		pg, m.free = m.free[k-1], m.free[:k-1]
		*pg = page{}
	} else {
		if len(m.spare) == 0 {
			m.spare = make([]page, min(max(2*cap(m.spare), 1), chunkPages))
		}
		k := len(m.spare) - 1
		pg, m.spare = &m.spare[k], m.spare[:k]
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
	return pg.words[addr%PageBytes/WordBytes]
}

// Write64 stores a committed word at addr.
func (m *Memory) Write64(addr, val uint64) {
	m.CheckAddr(addr)
	pg := m.pages[addr/PageBytes]
	if pg == nil {
		if val == 0 {
			return // writing zero to an untouched page changes nothing
		}
		pg = m.materialize(addr / PageBytes)
	}
	pg.words[addr%PageBytes/WordBytes] = val
}

// UFO returns the UFO bits for the line containing addr: the state the
// machine's fault check reads, at no simulated cost.
func (m *Memory) UFO(addr uint64) UFOBits {
	pg := m.pages[addr/PageBytes]
	if pg == nil {
		return UFONone
	}
	return pg.ufo[addr%PageBytes/LineBytes]
}

// SetUFO replaces the UFO bits for the line containing addr
// (set_ufo_bits). Coherence actions are the cache layer's job.
func (m *Memory) SetUFO(addr uint64, bits UFOBits) {
	pg := m.pages[addr/PageBytes]
	if pg == nil {
		if bits == UFONone {
			return
		}
		pg = m.materialize(addr / PageBytes)
	}
	pg.ufo[addr%PageBytes/LineBytes] = bits
}

// Faults reports whether an access of the given kind to addr would raise
// a UFO fault, assuming UFO faults are enabled on the accessing thread.
func (m *Memory) Faults(addr uint64, write bool) bool {
	b := m.UFO(addr)
	if write {
		return b&UFOFaultOnWrite != 0
	}
	return b&UFOFaultOnRead != 0
}
