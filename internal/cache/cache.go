// Package cache models the parts of the cache hierarchy that the paper's
// results depend on: a per-processor set-associative L1 occupancy model
// (which determines BTM's transactional capacity and therefore its
// overflow aborts) and a directory holding one record per line: which
// processors cache a copy (invalidations, transfer timing) and, beside
// that coherence state as in the paper's BTM, which hold the line in a
// hardware transaction's read or write set (the SR/SW bits, from which
// the machine nominates the parties to a conflict). A record is sized
// to the machine it serves: ⌈P/64⌉ words per mask, so a line costs 32
// bytes on a machine of up to 64 processors and 104 at MaxProcs.
//
// Data never lives here — the single architectural copy of memory contents
// and UFO bits is in package mem; because the simulation engine serializes
// processors at memory-operation granularity, caches only need to model
// presence, not values.
//
// Paper: §3.1 (L1 capacity bounds BTM; SR/SW bits on the line) and §5.1
// (simulated hierarchy, Table 4 parameters).
package cache

import (
	"fmt"
	"math/bits"
)

// L1 is a set-associative occupancy model with LRU replacement.
type L1 struct {
	ways   int
	sets   int
	lines  [][]way // [set][way]
	clock  uint64
	misses uint64
	hits   uint64
}

// way is 16 bytes so that a 4-way set is exactly one 64-byte host cache
// line: tag is the resident line plus one, and zero marks the way invalid.
type way struct {
	tag uint64
	lru uint64
}

// NewL1 builds a cache of sizeBytes with the given associativity over
// 64-byte lines. Both the set count and associativity must be positive
// and size must divide evenly.
func NewL1(sizeBytes, lineBytes, ways int) *L1 {
	if sizeBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		panic("cache: non-positive geometry")
	}
	lines := sizeBytes / lineBytes
	if lines%ways != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by %d ways", lines, ways))
	}
	sets := lines / ways
	c := &L1{ways: ways, sets: sets, lines: make([][]way, sets)}
	all := make([]way, lines) // one allocation for every set, not one each
	for i := range c.lines {
		c.lines[i] = all[i*ways : (i+1)*ways]
	}
	return c
}

// Sets returns the number of sets.
func (c *L1) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *L1) Ways() int { return c.ways }

func (c *L1) set(line uint64) []way { return c.lines[line%uint64(c.sets)] }

// Contains reports whether line is resident.
func (c *L1) Contains(line uint64) bool {
	for _, w := range c.set(line) {
		if w.tag == line+1 {
			return true
		}
	}
	return false
}

// Touch references line, returning whether it hit and, on a miss that
// required replacement, the victim line that was evicted.
func (c *L1) Touch(line uint64) (hit bool, victim uint64, evicted bool) {
	c.clock++
	set := c.set(line)
	var lruIdx int
	var freeIdx = -1
	for i := range set {
		w := &set[i]
		if w.tag == line+1 {
			w.lru = c.clock
			c.hits++
			return true, 0, false
		}
		if w.tag == 0 {
			freeIdx = i
		} else if set[lruIdx].lru > w.lru || set[lruIdx].tag == 0 {
			lruIdx = i
		}
	}
	c.misses++
	if freeIdx >= 0 {
		set[freeIdx] = way{tag: line + 1, lru: c.clock}
		return false, 0, false
	}
	victim = set[lruIdx].tag - 1
	set[lruIdx] = way{tag: line + 1, lru: c.clock}
	return false, victim, true
}

// Invalidate removes line if resident.
func (c *L1) Invalidate(line uint64) {
	set := c.set(line)
	for i := range set {
		if w := &set[i]; w.tag == line+1 {
			w.tag = 0
			return
		}
	}
}

// Reset returns the cache to the state NewL1 built: every way invalid
// and the reference counts zero.
func (c *L1) Reset() {
	for _, set := range c.lines {
		clear(set)
	}
	c.clock, c.misses, c.hits = 0, 0, 0
}

// Hits and Misses report reference counts since construction or Reset.
func (c *L1) Hits() uint64   { return c.hits }
func (c *L1) Misses() uint64 { return c.misses }

// MaxProcs is the largest processor count the directory's processor sets
// (and therefore the machine) support.
const MaxProcs = 256

// ProcSet is a bitmask over processor IDs, one bit per processor in
// ⌈P/64⌉ words: the representation of every per-line processor set the
// directory keeps. A ProcSet is a view — of one mask of a record, or of
// a caller's scratch words — so its methods change the words it views.
type ProcSet []uint64

// Set records processor p as a member.
func (s ProcSet) Set(p int) { s[uint(p)/64] |= 1 << (uint(p) % 64) }

// Clear removes processor p.
func (s ProcSet) Clear(p int) { s[uint(p)/64] &^= 1 << (uint(p) % 64) }

// Has reports whether processor p is a member.
func (s ProcSet) Has(p int) bool { return s[uint(p)/64]&(1<<(uint(p)%64)) != 0 }

// Empty reports whether no processor is a member.
func (s ProcSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// AnyBut reports whether some processor other than p is a member:
// whether "the others", from p's point of view, exist.
func (s ProcSet) AnyBut(p int) bool {
	for i, w := range s {
		if uint(i) == uint(p)/64 {
			w &^= 1 << (uint(p) % 64)
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// Or adds every member of t, a set of the same width or nil.
func (s ProcSet) Or(t ProcSet) {
	for i, w := range t {
		s[i] |= w
	}
}

// Next returns the smallest member that is at least from, or -1 when
// there is none, so that
//
//	for q := s.Next(0); q >= 0; q = s.Next(q + 1)
//
// visits the members in ascending order without allocating. Ascending
// order is part of the contract: the machine kills, NACKs and
// invalidates in the order this loop yields. Clearing a member already
// visited does not disturb the loop.
func (s ProcSet) Next(from int) int {
	wi := uint(from) / 64
	if wi >= uint(len(s)) {
		return -1
	}
	w := s[wi] &^ (1<<(uint(from)%64) - 1)
	for w == 0 {
		if wi++; wi == uint(len(s)) {
			return -1
		}
		w = s[wi]
	}
	return int(wi)*64 + bits.TrailingZeros64(w)
}

// Line is the directory's record for one line: its coherence state and,
// beside it, the transactional state the paper keeps on the cache line.
// It is a view of the record's 3·W+1 words — W = ⌈P/64⌉ words each of
// sharers, SR and SW bits, then one flag word — in the directory's
// storage, so it stays valid, and names the same record, until the
// directory is Reset. Readers and Writers are not subsets of Sharers:
// the unbounded HTM keeps a line in its read set after the L1 evicts it,
// and a reader spared by a UFO install has lost its copy but not its SR
// bit.
type Line []uint64

// Sharers is the set of processors with the line resident in their L1.
func (l Line) Sharers() ProcSet { return ProcSet(l[:len(l)/3]) }

// Readers is the SR bits: one per processor.
func (l Line) Readers() ProcSet { w := len(l) / 3; return ProcSet(l[w : 2*w]) }

// Writers is the SW bits.
func (l Line) Writers() ProcSet { w := len(l) / 3; return ProcSet(l[2*w : 3*w]) }

// Warm reports whether the line has been fetched from memory at least
// once; SetWarm records that it has.
func (l Line) Warm() bool { return l[len(l)-1] != 0 }
func (l Line) SetWarm()   { l[len(l)-1] = 1 }

// pageLines is the number of records in one directory page. It equals
// the number of lines in a page of simulated memory, so a workload that
// touches a memory page materialises one directory page beside it.
const pageLines = 64

// Directory holds one Line record for every line any processor has
// touched. Records are sized to the machine — Reset fixes the processor
// count, and with it the record's width — and live in flat per-page word
// slabs reached through an index that grows to the highest line seen; a
// slab is allocated on the first touch of any of its lines and never
// moves.
type Directory struct {
	stride int        // words per record: 3·⌈procs/64⌉ + 1
	pages  [][]uint64 // pageLines records per slab; nil = untouched
	free   [][]uint64 // blank slabs Reset kept for the next first touch
}

// NewDirectory creates an empty directory for MaxProcs processors.
func NewDirectory() *Directory {
	d := new(Directory)
	d.Reset(MaxProcs)
	return d
}

// Line returns the record for line, materialising its page if this is
// the first touch.
func (d *Directory) Line(line uint64) Line {
	pi := line / pageLines
	if pi >= uint64(len(d.pages)) || d.pages[pi] == nil {
		d.materialise(pi)
	}
	off := int(line%pageLines) * d.stride
	return d.pages[pi][off : off+d.stride]
}

func (d *Directory) materialise(pi uint64) {
	if n := pi + 1; n > uint64(len(d.pages)) {
		d.pages = append(d.pages, make([][]uint64, n-uint64(len(d.pages)))...)
	}
	// A kept slab is zero over its whole capacity, so one blanked at a
	// wider stride serves a narrower one; one too small is dropped.
	var slab []uint64
	if k := len(d.free); k > 0 {
		slab, d.free = d.free[k-1], d.free[:k-1]
	}
	if need := pageLines * d.stride; cap(slab) >= need {
		d.pages[pi] = slab[:need]
	} else {
		d.pages[pi] = make([]uint64, need)
	}
}

// Reset empties the directory, as NewDirectory builds it but with
// records sized for procs processors, by blanking exactly the pages that
// were materialised. The blanked pages and the index's capacity are kept
// for reuse.
func (d *Directory) Reset(procs int) {
	for _, slab := range d.pages {
		if slab != nil {
			clear(slab)
			d.free = append(d.free, slab)
		}
	}
	d.pages = d.pages[:0]
	d.stride = 3*((procs+63)/64) + 1
}

// Add records that processor p holds line.
func (d *Directory) Add(line uint64, p int) { d.Line(line).Sharers().Set(p) }

// Remove records that processor p no longer holds line.
func (d *Directory) Remove(line uint64, p int) { d.Line(line).Sharers().Clear(p) }

// HeldBy reports whether processor p holds line.
func (d *Directory) HeldBy(line uint64, p int) bool { return d.Line(line).Sharers().Has(p) }

// Lines returns every resident line (for consistency checking).
func (c *L1) Lines() []uint64 {
	var out []uint64
	for s := range c.lines {
		for i := range c.lines[s] {
			if tag := c.lines[s][i].tag; tag != 0 {
				out = append(out, tag-1)
			}
		}
	}
	return out
}

// ForEach visits every record that names at least one processor, in
// line order (for consistency checking).
func (d *Directory) ForEach(f func(line uint64, rec Line)) {
	for pi, slab := range d.pages {
		for i := 0; i < len(slab)/d.stride; i++ {
			rec := Line(slab[i*d.stride : (i+1)*d.stride])
			if !ProcSet(rec[:len(rec)-1]).Empty() {
				f(uint64(pi)*pageLines+uint64(i), rec)
			}
		}
	}
}
