package cache

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// This file keeps the two page-indexed stores that one memory slab per
// page replaced — a memory whose page record was its words and a byte of
// UFO bits per line, and a directory with its own page index, chunks and
// free list — as the reference TestOneStoreMatchesTwoStores drives the
// one store against.

// refMemory is the memory as it was: words and UFO bits in one page
// record, reached through an index of its own.
type refMemory struct {
	pages []*refPage
	size  uint64
	brk   uint64
	free  []*refPage
	spare []refPage
}

type refPage struct {
	words [mem.PageBytes / mem.WordBytes]uint64
	ufo   [mem.PageLines]mem.UFOBits
}

func (m *refMemory) Reset(sizeBytes uint64) {
	for _, pg := range m.pages {
		if pg != nil {
			m.free = append(m.free, pg)
		}
	}
	if sizeBytes == 0 {
		sizeBytes = mem.PageBytes
	}
	m.size, m.brk = 0, 0
	m.resize((sizeBytes + mem.PageBytes - 1) / mem.PageBytes * mem.PageBytes)
}

func (m *refMemory) resize(size uint64) {
	keep, pages := m.size/mem.PageBytes, size/mem.PageBytes
	m.pages = append(m.pages[:keep], make([]*refPage, pages-keep)...)
	m.size = size
}

func (m *refMemory) Sbrk(n uint64) uint64 {
	n = (n + mem.LineBytes - 1) / mem.LineBytes * mem.LineBytes
	base := m.brk
	m.brk += n
	for m.brk > m.size {
		m.resize(m.size * 2)
	}
	return base
}

func (m *refMemory) materialize(pi uint64) *refPage {
	var pg *refPage
	if k := len(m.free); k > 0 {
		pg, m.free = m.free[k-1], m.free[:k-1]
		*pg = refPage{}
	} else {
		if len(m.spare) == 0 {
			m.spare = make([]refPage, min(max(2*cap(m.spare), 1), 64))
		}
		k := len(m.spare) - 1
		pg, m.spare = &m.spare[k], m.spare[:k]
	}
	m.pages[pi] = pg
	return pg
}

func (m *refMemory) Read64(addr uint64) uint64 {
	if pg := m.pages[addr/mem.PageBytes]; pg != nil {
		return pg.words[addr%mem.PageBytes/mem.WordBytes]
	}
	return 0
}

func (m *refMemory) Write64(addr, val uint64) {
	pg := m.pages[addr/mem.PageBytes]
	if pg == nil {
		if val == 0 {
			return
		}
		pg = m.materialize(addr / mem.PageBytes)
	}
	pg.words[addr%mem.PageBytes/mem.WordBytes] = val
}

func (m *refMemory) UFO(addr uint64) mem.UFOBits {
	if pg := m.pages[addr/mem.PageBytes]; pg != nil {
		return pg.ufo[addr%mem.PageBytes/mem.LineBytes]
	}
	return mem.UFONone
}

func (m *refMemory) SetUFO(addr uint64, bits mem.UFOBits) {
	pg := m.pages[addr/mem.PageBytes]
	if pg == nil {
		if bits == mem.UFONone {
			return
		}
		pg = m.materialize(addr / mem.PageBytes)
	}
	pg.ufo[addr%mem.PageBytes/mem.LineBytes] = bits
}

// refDirectory is the directory as it was: records of 3·⌈P/64⌉ words and
// a flag word that held Warm alone, in per-page slabs of its own.
type refDirectory struct {
	stride int
	pages  [][]uint64
	free   [][]uint64
	spare  []uint64
}

func (d *refDirectory) Reset(procs int) {
	for _, slab := range d.pages {
		if slab != nil {
			d.free = append(d.free, slab)
		}
	}
	d.pages = d.pages[:0]
	d.stride = RecordWords(procs) + 1
}

func (d *refDirectory) Line(line uint64) Line {
	pi := line / mem.PageLines
	if pi >= uint64(len(d.pages)) || d.pages[pi] == nil {
		d.materialise(pi)
	}
	off := int(line%mem.PageLines) * d.stride
	return d.pages[pi][off : off+d.stride]
}

// peek is Line without the first touch: nil for a line never touched.
func (d *refDirectory) peek(line uint64) Line {
	if pi := line / mem.PageLines; pi < uint64(len(d.pages)) && d.pages[pi] != nil {
		return d.Line(line)
	}
	return nil
}

func (d *refDirectory) materialise(pi uint64) {
	if n := pi + 1; n > uint64(len(d.pages)) {
		d.pages = append(d.pages, make([][]uint64, n-uint64(len(d.pages)))...)
	}
	var slab []uint64
	if k := len(d.free); k > 0 {
		slab, d.free = d.free[k-1], d.free[:k-1]
	}
	need := mem.PageLines * d.stride
	if cap(slab) >= need {
		d.pages[pi] = slab[:need]
		clear(d.pages[pi])
		return
	}
	if len(d.spare) < need {
		d.spare = make([]uint64, min(max(2*cap(d.spare), need), 64*need))
	}
	k := len(d.spare) - need
	d.pages[pi], d.spare = d.spare[k:k+need:k+need], d.spare[:k]
}

// TestOneStoreMatchesTwoStores drives one memory and its directory view,
// and the reference pair, with the same seeded random operations — word
// writes and reads, UFO installs, sharer, SR, SW and Warm changes, Sbrk
// growth, and Resets at 8, 70, 130 and 256 processors with every record
// dirty — and after every step requires equal words, UFO bits and
// records: a line's masks and Warm bit, and which lines name a processor.
func TestOneStoreMatchesTwoStores(t *testing.T) {
	widths := []int{8, 70, 130, 256}
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := sim.NewRand(seed)
			m, ref, refDir := new(mem.Memory), new(refMemory), new(refDirectory)
			d := Over(m)
			procs := 0
			reset := func() {
				procs = widths[rng.Intn(len(widths))]
				size := uint64(1+rng.Intn(8)) * mem.PageBytes
				m.Reset(size, RecordWords(procs))
				ref.Reset(size)
				refDir.Reset(procs)
			}
			reset()
			// Three steps in four touch a line of a few hot ones, on both
			// sides of a page boundary, so that operations meet on one
			// record between Resets.
			hot := []uint64{0, 1, 63, 64, 130}
			for step := 0; step < 2000; step++ {
				lines := m.Size() / mem.LineBytes
				line := rng.Uint64() % lines
				if rng.Intn(4) > 0 {
					line = hot[rng.Intn(len(hot))] % lines
				}
				addr, p := mem.LineAddr(line)+uint64(rng.Intn(mem.LineWords))*mem.WordBytes, rng.Intn(procs)
				var op string
				switch k := rng.Intn(40); {
				case k < 10:
					op = "write"
					v := rng.Uint64()
					if k == 0 {
						v = 0
					}
					m.Write64(addr, v)
					ref.Write64(addr, v)
				case k < 14:
					op = "read"
					if got, want := m.Read64(addr), ref.Read64(addr); got != want {
						t.Fatalf("step %d: Read64(%#x) = %#x, want %#x", step, addr, got, want)
					}
				case k < 20:
					op = "set-ufo"
					b := mem.UFOBits(rng.Intn(4))
					m.SetUFO(addr, b)
					ref.SetUFO(addr, b)
				case k < 38:
					op = "record"
					got, want := d.Line(line), refDir.Line(line)
					sets := [][2]ProcSet{{got.Sharers(), want.Sharers()}, {got.Readers(), want.Readers()}, {got.Writers(), want.Writers()}}
					switch k % 6 {
					case 0:
						d.Add(line, p)
						want.Sharers().Set(p)
					case 1:
						d.Remove(line, p)
						want.Sharers().Clear(p)
					case 2, 3:
						s := sets[k%6-1]
						s[0].Set(p)
						s[1].Set(p)
					case 4:
						s := sets[rng.Intn(3)]
						s[0].Clear(p)
						s[1].Clear(p)
					default:
						got.SetWarm()
						want.SetWarm()
					}
					if d.HeldBy(line, p) != want.Sharers().Has(p) {
						t.Fatalf("step %d: HeldBy(%d, %d) disagrees", step, line, p)
					}
				case k == 38:
					op = "sbrk"
					n := rng.Uint64() % (3 * mem.PageBytes)
					if got, want := m.Sbrk(n), ref.Sbrk(n); got != want {
						t.Fatalf("step %d: Sbrk(%d) = %#x, want %#x", step, n, got, want)
					}
				default:
					op = "reset"
					for l := uint64(0); l < m.Size()/mem.LineBytes; l++ {
						for _, r := range [2]Line{d.Line(l), refDir.Line(l)} {
							for w := range r {
								r[w] = ^uint64(0) // the one store's UFO bits too
							}
						}
						m.Write64(mem.LineAddr(l), ^l)
						ref.Write64(mem.LineAddr(l), ^l)
					}
					reset()
				}
				compareStores(t, fmt.Sprintf("step %d (%s)", step, op), m, d, ref, refDir, procs)
			}
		})
	}
}

// compareStores fails unless the one store and the reference pair read
// the same everywhere, touching no page of either.
func compareStores(t *testing.T, when string, m *mem.Memory, d Directory, ref *refMemory, refDir *refDirectory, procs int) {
	t.Helper()
	if m.Size() != ref.size || m.Sbrk(0) != ref.brk {
		t.Fatalf("%s: size %d brk %d, want %d and %d", when, m.Size(), m.Sbrk(0), ref.size, ref.brk)
	}
	ufo := map[uint64]mem.UFOBits{} // by line, from the materialized pages' records
	m.Records(func(line uint64, rec []uint64) { ufo[line] = mem.UFOOf(rec) })
	for addr := uint64(0); addr < m.Size(); addr += mem.WordBytes {
		if got, want := m.Read64(addr), ref.Read64(addr); got != want {
			t.Fatalf("%s: word %#x = %#x, want %#x", when, addr, got, want)
		}
		if got, want := ufo[mem.LineOf(addr)], ref.UFO(addr); got != want {
			t.Fatalf("%s: UFO(%#x) = %v, want %v", when, addr, got, want)
		}
	}
	blank := make(Line, RecordWords(procs)+1)
	seen := map[uint64]bool{}
	m.Records(func(line uint64, rec []uint64) {
		seen[line] = true
		want := refDir.peek(line)
		if want == nil {
			want = blank
		}
		got := Line(rec)
		if len(got) != len(want) || !slices.Equal(got[:len(got)-1], want[:len(want)-1]) || got.Warm() != want.Warm() {
			t.Fatalf("%s: line %d's record %x, want masks and Warm of %x", when, line, got, want)
		}
		if mem.UFOOf(rec) != ref.UFO(mem.LineAddr(line)) {
			t.Fatalf("%s: line %d's flag word holds UFO bits %v, want %v", when, line, mem.UFOOf(rec), ref.UFO(mem.LineAddr(line)))
		}
	})
	for pi, slab := range refDir.pages {
		for i := 0; slab != nil && i < mem.PageLines; i++ {
			if line := uint64(pi*mem.PageLines + i); !seen[line] && slices.Max(refDir.Line(line)) != 0 {
				t.Fatalf("%s: line %d has a record in the reference and none in the one store", when, line)
			}
		}
	}
	var named, refNamed []uint64
	d.ForEach(func(line uint64, _ Line) { named = append(named, line) })
	for pi, slab := range refDir.pages {
		for i := 0; slab != nil && i < mem.PageLines; i++ {
			if rec := refDir.Line(uint64(pi*mem.PageLines + i)); !ProcSet(rec[:len(rec)-1]).Empty() {
				refNamed = append(refNamed, uint64(pi*mem.PageLines+i))
			}
		}
	}
	if !slices.Equal(named, refNamed) {
		t.Fatalf("%s: ForEach visits lines %v, want %v", when, named, refNamed)
	}
}
