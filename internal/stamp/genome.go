package stamp

import (
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// Genome's compute between transactions: after each sorted insertion
// (phase 2) and, as overlap scoring, after each successor probe (phase 3).
const (
	GenomeInsertCycles = 20
	GenomeScoreCycles  = 40
)

// Genome models STAMP's gene-sequencing application in the three phases
// the paper's analysis leans on:
//
//  1. Segment deduplication: threads insert chunks of segment keys (with
//     duplicates) into one shared hash set, a whole chunk per
//     transaction — STAMP's batched hashtable insertions, whose multi-line
//     footprints are what periodically overflow BTM's cache.
//  2. Sorted insertion: unique segments are inserted in sorted order into
//     a small set of shared linked lists (key-range buckets) — the
//     high-contention phase the paper calls out ("a data structure not
//     well suited for concurrent writes by transactions"): every insert
//     reads a list prefix that concurrent writers invalidate, so writers
//     kill every younger reader behind them and contention management is
//     make-or-break (Figure 8).
//  3. Matching: threads probe the hash for each unique segment's
//     successor (read-only transactions) and count chain links.
type Genome struct {
	Segments int // total segment draws (with duplicates)
	KeySpace int // distinct possible keys (controls the duplicate rate)
	Buckets  uint64
	// ListBuckets is the number of key-range-bucketed sorted lists in
	// phase 2 (fewer buckets = hotter).
	ListBuckets int
	// Chunk is the number of segments deduplicated per phase-1
	// transaction.
	Chunk int
	Seed  uint64

	threads  int
	hash     txlib.Hash
	lists    []txlib.List
	arenas   []*txlib.Arena
	barrier  *Barrier
	keys     []uint64 // the drawn segment keys
	matchCnt []int    // per-thread phase-3 results
}

// NewGenome returns a scaled genome configuration.
func NewGenome(segments int) *Genome {
	return &Genome{
		Segments:    segments,
		KeySpace:    segments * 3 / 4,
		Buckets:     1 << 10,
		ListBuckets: 16,
		Chunk:       8,
		Seed:        31,
	}
}

// Init implements Workload.
func (g *Genome) Init(m *machine.Machine, threads int) {
	g.threads = threads
	if g.Buckets == 0 {
		g.Buckets = 1 << 10
	}
	if g.ListBuckets == 0 {
		g.ListBuckets = 16
	}
	if g.Chunk == 0 {
		g.Chunk = 8
	}
	d := txlib.Direct{M: m}
	setupA := txlib.NewArena(m, nil, g.Buckets*64+uint64(g.ListBuckets)*64+1<<12)
	g.hash = txlib.NewHash(d, setupA, g.Buckets)
	g.lists = make([]txlib.List, g.ListBuckets)
	for i := range g.lists {
		g.lists[i] = txlib.NewList(d, setupA)
	}
	g.barrier = NewBarrier(m, threads)
	r := sim.NewRand(g.Seed)
	g.keys = make([]uint64, g.Segments)
	for i := range g.keys {
		g.keys[i] = uint64(1 + r.Intn(g.KeySpace))
	}
	g.arenas = make([]*txlib.Arena, threads)
	for i := range g.arenas {
		g.arenas[i] = txlib.NewArena(m, nil, uint64(g.Segments/threads+16)*2*64+1<<12)
	}
	g.matchCnt = make([]int, threads)
}

// listFor maps a key to its phase-2 bucket.
func (g *Genome) listFor(key uint64) txlib.List {
	idx := int(key) * g.ListBuckets / (g.KeySpace + 2)
	if idx >= g.ListBuckets {
		idx = g.ListBuckets - 1
	}
	return g.lists[idx]
}

// Thread implements Workload.
func (g *Genome) Thread(i int, ex tm.Exec) {
	a := g.arenas[i]
	lo, hi := split(g.Segments, g.threads, i)

	// Phase 1: deduplicate chunk-by-chunk into the shared hash set.
	// Remember which keys this thread inserted first; it owns their
	// phase-2 insertion and phase-3 probe.
	var mine []uint64
	chunkFirst := make([]bool, g.Chunk)
	// Each phase's body is built once, over what its loop assigns.
	var (
		chunk []uint64
		key   uint64
		found bool // assigned, not accumulated: safe across re-execution
	)
	dedup := func(tx tm.Tx) {
		for j, k := range chunk {
			chunkFirst[j] = g.hash.Insert(tx, a, k, k)
		}
	}
	insert := func(tx tm.Tx) { g.listFor(key).Insert(tx, a, key, key) }
	probe := func(tx tm.Tx) { found = g.hash.Contains(tx, key+1) }
	ex.Proc().SetNote("genome phase1")
	for base := lo; base < hi; base += g.Chunk {
		end := base + g.Chunk
		if end > hi {
			end = hi
		}
		chunk = g.keys[base:end]
		ex.Atomic(dedup)
		for j := range chunk {
			if chunkFirst[j] {
				mine = append(mine, chunk[j])
			}
		}
		ex.Proc().Elapse(uint64(30 * len(chunk))) // segment preprocessing
	}
	g.barrier.Wait(ex)

	// Phase 2: sorted insertion into the bucketed lists (high contention).
	ex.Proc().SetNote("genome phase2")
	for _, key = range mine {
		ex.Atomic(insert)
		ex.Proc().Elapse(GenomeInsertCycles)
	}
	g.barrier.Wait(ex)

	// Phase 3: probe for successor segments (read-only transactions).
	ex.Proc().SetNote("genome phase3")
	count := 0
	for _, key = range mine {
		ex.Atomic(probe)
		if found {
			count++
		}
		ex.Proc().Elapse(GenomeScoreCycles)
	}
	g.matchCnt[i] = count
}

// Validate implements Workload: the lists and hash must both hold exactly
// the distinct keys, each list sorted and in its key range, and the
// phase-3 match count must equal the reference count.
func (g *Genome) Validate(m *machine.Machine) error {
	d := txlib.Direct{M: m}
	distinct := make(map[uint64]bool, len(g.keys))
	for _, k := range g.keys {
		distinct[k] = true
	}
	if got := g.hash.Len(d); got != len(distinct) {
		return validErr("genome", "hash has %d keys, want %d", got, len(distinct))
	}
	totalListed := 0
	for li, l := range g.lists {
		var err error
		i, prev := 0, uint64(0)
		l.ForEach(d, func(k, _ uint64) {
			switch {
			case err != nil:
			case i > 0 && prev >= k:
				err = validErr("genome", "list %d unsorted at %d", li, i)
			case !distinct[k]:
				err = validErr("genome", "list %d holds foreign key %d", li, k)
			case g.listFor(k).Head() != l.Head():
				err = validErr("genome", "key %d landed in wrong bucket %d", k, li)
			}
			i, prev = i+1, k
		})
		if err != nil {
			return err
		}
		totalListed += i
	}
	if totalListed != len(distinct) {
		return validErr("genome", "lists hold %d keys, want %d", totalListed, len(distinct))
	}
	wantMatches := 0
	for k := range distinct {
		if distinct[k+1] {
			wantMatches++
		}
	}
	gotMatches := 0
	for _, c := range g.matchCnt {
		gotMatches += c
	}
	if gotMatches != wantMatches {
		return validErr("genome", "matches = %d, want %d", gotMatches, wantMatches)
	}
	return nil
}
