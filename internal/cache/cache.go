// Package cache models the parts of the cache hierarchy that the paper's
// results depend on: a per-processor set-associative L1 occupancy model
// of tags alone, each set kept in LRU order (which determines BTM's
// transactional capacity and therefore its overflow aborts), and a
// directory holding one record per line: which processors cache a copy
// (invalidations, transfer timing) and, beside that coherence state as
// in the paper's BTM, which hold the line in a hardware transaction's
// read or write set (the SR/SW bits, from which the machine nominates
// the parties to a conflict). A record is sized to the machine it
// serves: ⌈P/64⌉ words per mask, so a line costs 32 bytes on a machine
// of up to 64 processors and 104 at MaxProcs.
//
// The directory stores nothing: its records are package mem's line
// records, each after its line's words, ending in mem's flag word (the
// UFO bits, and the directory's Warm bit). With processors serialized per
// memory operation, caches model presence, not values.
//
// Paper: §3.1 (L1 capacity bounds BTM; SR/SW bits on the line) and §5.1
// (simulated hierarchy, Table 4 parameters).
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// L1 is a set-associative occupancy model with LRU replacement. A way
// is its tag, the resident line plus one (zero: invalid), and a set keeps
// its ways most recently used first, so a 4-way set is 32 bytes and LRU
// needs no stamps: a hit moves its way to the front, and a miss takes
// the hole nearest the back, else evicts the last way (DESIGN.md §54).
type L1 struct {
	ways   int
	sets   int
	mask   uint64   // sets - 1: a line's set is line & mask
	all    []uint64 // set s is all[s*ways : (s+1)*ways]
	misses uint64
	hits   uint64
}

// NewL1 builds a cache of sizeBytes with the given associativity over
// 64-byte lines. Both the set count and associativity must be positive,
// size must divide evenly, and the set count must be a power of two, so
// that a line finds its set with a mask.
func NewL1(sizeBytes, lineBytes, ways int) *L1 { return &NewL1s(1, sizeBytes, lineBytes, ways)[0] }

// NewL1s builds n caches of NewL1's geometry in two allocations: the
// caches, and one slab that their ways are cut from, each cache's capped
// at its own.
func NewL1s(n, sizeBytes, lineBytes, ways int) []L1 {
	if sizeBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		panic("cache: non-positive geometry")
	}
	lines := sizeBytes / lineBytes
	if lines%ways != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by %d ways", lines, ways))
	}
	sets := lines / ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two", sets))
	}
	cs, all := make([]L1, n), make([]uint64, n*lines)
	for i := range cs {
		cs[i] = L1{ways: ways, sets: sets, mask: uint64(sets - 1), all: all[i*lines : (i+1)*lines : (i+1)*lines]}
	}
	return cs
}

// Sets returns the number of sets.
func (c *L1) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *L1) Ways() int { return c.ways }

func (c *L1) set(line uint64) []uint64 {
	i := int(line&c.mask) * c.ways
	return c.all[i : i+c.ways]
}

// Contains reports whether line is resident.
func (c *L1) Contains(line uint64) bool {
	for _, tag := range c.set(line) {
		if tag == line+1 {
			return true
		}
	}
	return false
}

// HitMRU reports whether line is in its set's most recently used way,
// counting the hit if so: then Touch would hit without moving a way. It
// inlines, for the machine's common access.
func (c *L1) HitMRU(line uint64) bool {
	if c.all[int(line&c.mask)*c.ways] != line+1 {
		return false
	}
	c.hits++
	return true
}

// Touch references line, returning whether it hit and, on a miss that
// required replacement, the victim line that was evicted.
func (c *L1) Touch(line uint64) (hit bool, victim uint64, evicted bool) {
	tag, set := line+1, c.set(line)
	if set[0] == tag {
		c.hits++
		return true, 0, false
	}
	hole := -1 // the hole nearest the back
	for i, w := range set {
		if w == tag {
			toFront(set, i, tag)
			c.hits++
			return true, 0, false
		}
		if w == 0 {
			hole = i
		}
	}
	c.misses++
	if hole < 0 { // the least recently used way makes room
		hole = len(set) - 1
		victim, evicted = set[hole]-1, true
	}
	toFront(set, hole, tag)
	return false, victim, evicted
}

// toFront moves the ways in front of way i back by one, over it, and
// puts tag in front: the most recently used way.
func toFront(set []uint64, i int, tag uint64) {
	copy(set[1:i+1], set[:i])
	set[0] = tag
}

// Invalidate removes line if resident, leaving a hole where it was: the
// other ways keep their order.
func (c *L1) Invalidate(line uint64) {
	set := c.set(line)
	for i, tag := range set {
		if tag == line+1 {
			set[i] = 0
			return
		}
	}
}

// Reset returns the cache to the state NewL1 built: every way invalid
// and the reference counts zero.
func (c *L1) Reset() {
	clear(c.all)
	c.misses, c.hits = 0, 0
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
// It is a view of the line's record in package mem — W = ⌈P/64⌉ words
// each of sharers, SR and SW bits, then mem's flag word, which holds the
// line's UFO bits and the Warm bit — so it stays valid, and names the
// same record, until the memory is Reset. Readers and Writers are not
// subsets of Sharers: the unbounded HTM keeps a line in its read set
// after the L1 evicts it, and a reader spared by a UFO install has lost
// its copy but not its SR bit.
type Line []uint64

// Sharers is the set of processors with the line resident in their L1.
func (l Line) Sharers() ProcSet { return ProcSet(l[:len(l)/3]) }

// Readers is the SR bits: one per processor.
func (l Line) Readers() ProcSet { w := len(l) / 3; return ProcSet(l[w : 2*w]) }

// Writers is the SW bits.
func (l Line) Writers() ProcSet { w := len(l) / 3; return ProcSet(l[2*w : 3*w]) }

// Held reports whether some processor's hardware transaction holds the
// line in a way an access conflicts with: any SW bit, and for a write any
// SR bit too (the accessor's own included). It reads the SW words, or the
// SR and SW words, and inlines; a line nobody holds needs nothing more.
func (l Line) Held(write bool) bool {
	w := len(l) / 3
	from := 2 * w
	if write {
		from = w
	}
	for _, x := range l[from : 3*w] {
		if x != 0 {
			return true
		}
	}
	return false
}

// warm is the Warm bit: the flag word's first bit above mem's UFO bits.
const warm = uint64(mem.UFOFaultAll) + 1

// Warm reports whether the line has been fetched from memory at least
// once; SetWarm records that it has.
func (l Line) Warm() bool { return l[len(l)-1]&warm != 0 }
func (l Line) SetWarm()   { l[len(l)-1] |= warm }

// RecordWords is the words of a record's three masks at procs processors:
// the width a machine's memory is Reset to, in front of mem's flag word.
func RecordWords(procs int) int { return 3 * ((procs + 63) / 64) }

// Directory views a memory's line records as directory records (Line);
// it has no storage of its own.
type Directory struct{ m *mem.Memory }

// Over returns the directory whose records are m's.
func Over(m *mem.Memory) Directory { return Directory{m} }

// NewDirectory creates an empty directory for MaxProcs processors over a
// memory of its own, of 2^18 lines.
func NewDirectory() Directory {
	m := new(mem.Memory)
	m.Reset(ownBytes, RecordWords(MaxProcs))
	return Over(m)
}

const ownBytes = 1 << 24

// Line returns the record for line, materialising its page if this is
// the first touch.
func (d Directory) Line(line uint64) Line { return Line(d.m.Record(line)) }

// Add records that processor p holds line.
func (d Directory) Add(line uint64, p int) { d.Line(line).Sharers().Set(p) }

// Remove records that processor p no longer holds line.
func (d Directory) Remove(line uint64, p int) { d.Line(line).Sharers().Clear(p) }

// HeldBy reports whether processor p holds line.
func (d Directory) HeldBy(line uint64, p int) bool { return d.Line(line).Sharers().Has(p) }

// Lines returns every resident line (for consistency checking).
func (c *L1) Lines() []uint64 {
	var out []uint64
	for _, tag := range c.all {
		if tag != 0 {
			out = append(out, tag-1)
		}
	}
	return out
}

// ForEach visits every record that names at least one processor, in
// line order (for consistency checking).
func (d Directory) ForEach(f func(line uint64, rec Line)) {
	d.m.Records(func(line uint64, rec []uint64) {
		if !ProcSet(rec[:len(rec)-1]).Empty() {
			f(line, rec)
		}
	})
}
