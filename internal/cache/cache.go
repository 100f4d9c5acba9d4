// Package cache models the parts of the cache hierarchy that the paper's
// results depend on: a per-processor set-associative L1 occupancy model
// (which determines BTM's transactional capacity and therefore its
// overflow aborts) and a directory that tracks which processors hold a
// copy of each line (which drives invalidations, conflict detection, and
// transfer timing).
//
// Data never lives here — the single architectural copy of memory contents
// and UFO bits is in package mem; because the simulation engine serializes
// processors at memory-operation granularity, caches only need to model
// presence, not values.
//
// Paper: §3.1 (L1 capacity bounds BTM) and §5.1 (simulated hierarchy,
// Table 4 parameters).
package cache

import "fmt"

// L1 is a set-associative occupancy model with LRU replacement.
type L1 struct {
	ways   int
	sets   int
	lines  [][]way // [set][way]
	clock  uint64
	misses uint64
	hits   uint64
}

type way struct {
	line  uint64
	valid bool
	lru   uint64
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
	for i := range c.set(line) {
		if w := &c.set(line)[i]; w.valid && w.line == line {
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
		if w.valid && w.line == line {
			w.lru = c.clock
			c.hits++
			return true, 0, false
		}
		if !w.valid {
			freeIdx = i
		} else if set[lruIdx].lru > w.lru || !set[lruIdx].valid {
			lruIdx = i
		}
	}
	c.misses++
	if freeIdx >= 0 {
		set[freeIdx] = way{line: line, valid: true, lru: c.clock}
		return false, 0, false
	}
	victim = set[lruIdx].line
	set[lruIdx] = way{line: line, valid: true, lru: c.clock}
	return false, victim, true
}

// Invalidate removes line if resident.
func (c *L1) Invalidate(line uint64) {
	set := c.set(line)
	for i := range set {
		if w := &set[i]; w.valid && w.line == line {
			w.valid = false
			return
		}
	}
}

// InvalidateAll empties the cache (used when modeling context switches in
// stress tests; BTM itself only flash-clears transactional state).
func (c *L1) InvalidateAll() {
	for s := range c.lines {
		for i := range c.lines[s] {
			c.lines[s][i].valid = false
		}
	}
}

// Hits and Misses report reference counts since construction.
func (c *L1) Hits() uint64   { return c.hits }
func (c *L1) Misses() uint64 { return c.misses }

// MaxProcs is the largest processor count the directory's sharer sets
// (and therefore the machine) support.
const MaxProcs = 256

// ProcSet is a fixed-width bitmask over processor IDs 0..MaxProcs-1,
// the directory's sharer-set representation.
type ProcSet [MaxProcs / 64]uint64

// Set records processor p as a member.
func (s *ProcSet) Set(p int) { s[uint(p)/64] |= 1 << (uint(p) % 64) }

// Clear removes processor p.
func (s *ProcSet) Clear(p int) { s[uint(p)/64] &^= 1 << (uint(p) % 64) }

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

// Procs returns the member processor IDs in ascending order.
func (s ProcSet) Procs() []int {
	var out []int
	for wi, w := range s {
		for i := 0; w != 0; i++ {
			if w&1 != 0 {
				out = append(out, wi*64+i)
			}
			w >>= 1
		}
	}
	return out
}

// Directory tracks, for every line, the set of processors holding a
// cached copy. It supports up to MaxProcs processors.
type Directory struct {
	sharers map[uint64]ProcSet
}

// NewDirectory creates an empty directory.
func NewDirectory() *Directory {
	return &Directory{sharers: make(map[uint64]ProcSet)}
}

// Sharers returns the sharer set for line (zero value when unshared).
func (d *Directory) Sharers(line uint64) ProcSet { return d.sharers[line] }

// Add records that processor p holds line.
func (d *Directory) Add(line uint64, p int) {
	s := d.sharers[line]
	s.Set(p)
	d.sharers[line] = s
}

// Remove records that processor p no longer holds line.
func (d *Directory) Remove(line uint64, p int) {
	if s, ok := d.sharers[line]; ok {
		s.Clear(p)
		if s.Empty() {
			delete(d.sharers, line)
		} else {
			d.sharers[line] = s
		}
	}
}

// Others returns the processors other than p that hold line.
func (d *Directory) Others(line uint64, p int) []int {
	s := d.sharers[line]
	if s.Empty() {
		return nil
	}
	s.Clear(p)
	return s.Procs()
}

// HeldBy reports whether processor p holds line.
func (d *Directory) HeldBy(line uint64, p int) bool {
	return d.sharers[line].Has(p)
}

// Lines returns every resident line (for consistency checking).
func (c *L1) Lines() []uint64 {
	var out []uint64
	for s := range c.lines {
		for i := range c.lines[s] {
			if c.lines[s][i].valid {
				out = append(out, c.lines[s][i].line)
			}
		}
	}
	return out
}

// ForEach visits every line with at least one sharer.
func (d *Directory) ForEach(f func(line uint64, sharers ProcSet)) {
	for line, set := range d.sharers {
		f(line, set)
	}
}
