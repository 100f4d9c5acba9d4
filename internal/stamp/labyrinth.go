package stamp

import (
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// LabyrinthRouteCycles is the compute charged to plan the next route,
// after each claim.
const LabyrinthRouteCycles = 300

// Labyrinth models STAMP's maze router (an extension beyond the paper's
// three benchmarks): threads claim paths through a shared grid, each
// claim one transaction that reads and writes every cell on the route.
// Routes span hundreds of cells (one line each), so almost every
// transaction exceeds BTM's capacity — the workload runs essentially
// entirely in the software TM, the regime where a hybrid is only as good
// as its STM. (STAMP: "large footprint, long transactions".)
type Labyrinth struct {
	Width, Height  int
	PathsPerThread int
	PathLen        int
	Seed           uint64

	threads    int
	grid       uint64 // base address: one line per cell
	routes     [][][]uint64
	claimed    []int    // per-thread successful claims
	claimedIdx [][]bool // which routes were claimed (validation)
}

// NewLabyrinth returns a scaled configuration.
func NewLabyrinth(width, height, pathsPerThread int) *Labyrinth {
	return &Labyrinth{
		Width: width, Height: height,
		PathsPerThread: pathsPerThread,
		PathLen:        96,
		Seed:           71,
	}
}

func (l *Labyrinth) cellAddr(x, y int) uint64 {
	return l.grid + uint64(y*l.Width+x)*mem.LineBytes
}

// Init implements Workload: allocate the grid and pre-plan candidate
// routes (monotone staircase walks between random endpoints; planning is
// outside transactions in STAMP too).
func (l *Labyrinth) Init(m *machine.Machine, threads int) {
	l.threads = threads
	l.grid = m.Mem.Sbrk(uint64(l.Width*l.Height) * mem.LineBytes)
	r := sim.NewRand(l.Seed)
	l.routes = make([][][]uint64, threads)
	for t := 0; t < threads; t++ {
		l.routes[t] = make([][]uint64, l.PathsPerThread)
		for p := 0; p < l.PathsPerThread; p++ {
			l.routes[t][p] = l.planRoute(r)
		}
	}
	l.claimed = make([]int, threads)
	l.claimedIdx = make([][]bool, threads)
	for t := range l.claimedIdx {
		l.claimedIdx[t] = make([]bool, l.PathsPerThread)
	}
}

// planRoute walks a staircase of ~PathLen cells.
func (l *Labyrinth) planRoute(r *sim.Rand) []uint64 {
	x, y := r.Intn(l.Width), r.Intn(l.Height)
	route := make([]uint64, 0, l.PathLen)
	seen := map[uint64]bool{}
	for len(route) < l.PathLen {
		a := l.cellAddr(x, y)
		if !seen[a] {
			seen[a] = true
			route = append(route, a)
		}
		if r.Intn(2) == 0 {
			x = (x + 1) % l.Width
		} else {
			y = (y + 1) % l.Height
		}
	}
	return route
}

// Thread implements Workload: claim each planned route atomically; a
// route crossing an already-claimed cell is skipped (STAMP re-plans; we
// count the outcome either way, keeping total work fixed).
func (l *Labyrinth) Thread(i int, ex tm.Exec) {
	claimed := 0
	marker := uint64(i) + 1
	for ri, route := range l.routes[i] {
		rt := route
		var ok bool
		ex.Atomic(func(tx tm.Tx) {
			ok = true
			for _, cell := range rt {
				if tx.Load(cell) != 0 {
					ok = false
					return // free cells only; no writes performed yet
				}
			}
			for _, cell := range rt {
				tx.Store(cell, marker)
			}
		})
		if ok {
			claimed++
			l.claimedIdx[i][ri] = true
		}
		ex.Proc().Elapse(LabyrinthRouteCycles)
	}
	l.claimed[i] = claimed
}

// Validate implements Workload: successfully claimed routes (which are
// mutually disjoint, since a claim requires every cell free) must be
// fully owned by their claimer, and no cell outside a claimed route may
// be marked.
func (l *Labyrinth) Validate(m *machine.Machine) error {
	d := txlib.Direct{M: m}
	wantOwner := map[uint64]uint64{} // cell → marker
	for t := 0; t < l.threads; t++ {
		marker := uint64(t) + 1
		count := 0
		for ri, route := range l.routes[t] {
			if !l.claimedIdx[t][ri] {
				continue
			}
			count++
			for _, cell := range route {
				if prev, dup := wantOwner[cell]; dup {
					return validErr("labyrinth", "cell %#x claimed by markers %d and %d", cell, prev, marker)
				}
				wantOwner[cell] = marker
			}
		}
		if count != l.claimed[t] {
			return validErr("labyrinth", "thread %d claim bookkeeping inconsistent", t)
		}
	}
	marked := 0
	for y := 0; y < l.Height; y++ {
		for x := 0; x < l.Width; x++ {
			cell := l.cellAddr(x, y)
			got := d.Load(cell)
			want := wantOwner[cell]
			if got != want {
				return validErr("labyrinth", "cell (%d,%d) owner = %d, want %d", x, y, got, want)
			}
			if got != 0 {
				marked++
			}
		}
	}
	if marked != len(wantOwner) {
		return validErr("labyrinth", "marked cells %d != claimed cells %d", marked, len(wantOwner))
	}
	return nil
}
