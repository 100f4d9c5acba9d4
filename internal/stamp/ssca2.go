package stamp

import (
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// SSCA2 models STAMP's ssca2 graph kernel (an extension beyond the
// paper's three benchmarks): threads insert directed edges into
// per-node adjacency lists. Transactions are tiny (one list insert) and
// contention is low because edges scatter across many nodes — the
// workload STAMP characterizes as "small footprint, low contention",
// where every TM should scale near-linearly.
type SSCA2 struct {
	Nodes int
	Edges int // total edge draws (duplicates rejected by the lists)
	Seed  uint64

	threads int
	adj     []txlib.List // one list per node
	arenas  []*txlib.Arena
	edges   [][2]uint64 // the drawn edges (for validation)
}

// NewSSCA2 returns a scaled configuration.
func NewSSCA2(nodes, edges int) *SSCA2 {
	return &SSCA2{Nodes: nodes, Edges: edges, Seed: 53}
}

// Init implements Workload.
func (s *SSCA2) Init(m *machine.Machine, threads int) {
	s.threads = threads
	d := txlib.Direct{M: m}
	setupA := txlib.NewArena(m, nil, uint64(s.Nodes)*64+1<<12)
	s.adj = make([]txlib.List, s.Nodes)
	for i := range s.adj {
		s.adj[i] = txlib.NewList(d, setupA)
	}
	r := sim.NewRand(s.Seed)
	s.edges = make([][2]uint64, s.Edges)
	for i := range s.edges {
		u := uint64(r.Intn(s.Nodes))
		v := uint64(r.Intn(s.Nodes))
		s.edges[i] = [2]uint64{u, v}
	}
	s.arenas = make([]*txlib.Arena, threads)
	for i := range s.arenas {
		s.arenas[i] = txlib.NewArena(m, nil, uint64(s.Edges/threads+16)*64+1<<12)
	}
}

// Thread implements Workload.
func (s *SSCA2) Thread(i int, ex tm.Exec) {
	a := s.arenas[i]
	lo, hi := split(s.Edges, s.threads, i)
	for _, e := range s.edges[lo:hi] {
		u, v := e[0], e[1]
		ex.Atomic(func(tx tm.Tx) {
			s.adj[u].Insert(tx, a, v, 1) // duplicate edges rejected
		})
		ex.Proc().Elapse(uint64(15 + i%7)) // per-edge preprocessing
	}
}

// Validate implements Workload: each adjacency list must hold exactly the
// distinct targets drawn for that node, sorted.
func (s *SSCA2) Validate(m *machine.Machine) error {
	d := txlib.Direct{M: m}
	want := make([]map[uint64]bool, s.Nodes)
	for i := range want {
		want[i] = map[uint64]bool{}
	}
	for _, e := range s.edges {
		want[e[0]][e[1]] = true
	}
	for u := range s.adj {
		var err error
		n, prev := 0, uint64(0)
		s.adj[u].ForEach(d, func(k, _ uint64) {
			switch {
			case err != nil:
			case !want[u][k]:
				err = validErr("ssca2", "node %d has foreign edge %d", u, k)
			case n > 0 && prev >= k:
				err = validErr("ssca2", "node %d adjacency unsorted", u)
			}
			n, prev = n+1, k
		})
		if n != len(want[u]) {
			return validErr("ssca2", "node %d has %d edges, want %d", u, n, len(want[u]))
		}
		if err != nil {
			return err
		}
	}
	return nil
}
