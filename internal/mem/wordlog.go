package mem

// WordLog is a speculative write buffer: the word values a transaction
// has stored and not yet published. It is the one such buffer in the
// repository — BTM's speculatively-dirty lines (§3.1), the redo log of
// every lazy-versioning STM (§4.1's log, turned around) and
// tmtest.Recorder's record of an attempt's writes are this type.
//
// Every Put appends a version that remembers the version of the same word
// it shadows, so the log's length is a complete savepoint: Truncate(n)
// pops versions back to length n, re-exposing what each one shadowed,
// with no undo journal and nothing for the store path to know about
// nesting. The zero value is an empty log; Reset keeps both the version
// slice and the index's buckets, so a warmed-up log allocates nothing.
type WordLog struct {
	// last maps a buffered address to 1 + the index of its newest version.
	// A Go map, not an open-addressed table: map functions measured under
	// 1 % of CPU on every benchmark workload (DESIGN.md §20).
	last map[uint64]int
	vers []wordVersion
}

type wordVersion struct {
	addr, val uint64
	prev      int // 1 + the index of the version this one shadows; 0 for the word's first
}

// Len returns the number of versions held: zero exactly when nothing is
// buffered, and the value to hand Truncate to come back to this point.
func (l *WordLog) Len() int { return len(l.vers) }

// Get returns the newest value buffered for addr.
func (l *WordLog) Get(addr uint64) (uint64, bool) {
	if i := l.last[addr]; i != 0 {
		return l.vers[i-1].val, true
	}
	return 0, false
}

// Put buffers val as the newest value of addr.
func (l *WordLog) Put(addr, val uint64) {
	if l.last == nil {
		l.last = make(map[uint64]int)
	}
	l.vers = append(l.vers, wordVersion{addr: addr, val: val, prev: l.last[addr]})
	l.last[addr] = len(l.vers)
}

// Truncate discards every version put since the log was n long.
func (l *WordLog) Truncate(n int) {
	for i := len(l.vers) - 1; i >= n; i-- {
		if v := l.vers[i]; v.prev != 0 {
			l.last[v.addr] = v.prev
		} else {
			delete(l.last, v.addr)
		}
	}
	l.vers = l.vers[:n]
}

// Reset empties the log.
func (l *WordLog) Reset() {
	clear(l.last)
	l.vers = l.vers[:0]
}

// Words calls f with each buffered word and its newest value, in the
// order the words were first stored: the order a commit publishes in, so
// that the simulated write-back is the same on every run.
func (l *WordLog) Words(f func(addr, val uint64)) {
	for _, v := range l.vers {
		if v.prev == 0 {
			f(v.addr, l.vers[l.last[v.addr]-1].val)
		}
	}
}
