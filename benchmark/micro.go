package main

import (
	"time"

	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// microEntry is one layer-micro measurement: n direct calls into one
// layer's public functions, timed as a batch. Everything a batch needs
// that is not the measured call (building the machine, filling a table)
// happens inside run but outside the duration it returns.
type microEntry struct {
	name string
	unit string // "ns" or "ms" per call
	n    int
	run  func(n int, seed uint64) time.Duration
}

// perCall converts a batch duration to the entry's unit per call.
func (e microEntry) perCall(d time.Duration) float64 {
	per := float64(d) / float64(e.n)
	if e.unit == "ms" {
		return per / float64(time.Millisecond)
	}
	return per
}

// microSink keeps measured results live.
var microSink uint64

// lcg steps the address stream the micro entries draw from; the seed
// only moves where the stream starts.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

const microMemBytes = 1 << 24

func microParams(procs int, seed uint64) machine.Params {
	p := machine.DefaultParams(procs)
	p.MemBytes = microMemBytes
	p.Quantum = 0 // no timer interrupts: they would abort the measured transaction
	p.Seed = seed
	return p
}

// microOptions are the harness options systems are built under when the
// build itself is not what is measured.
func microOptions(seed uint64) harness.Options {
	opt := harness.DefaultOptions()
	opt.Params = microParams(1, seed)
	opt.OTableRows = 1 << 13
	return opt
}

// onProc0 runs body on processor 0 of a fresh machine while processors
// 1..procs-1 sit blocked inside open hardware transactions with eight
// lines each in their read sets, so every access processor 0 issues
// scans procs-1 live footprints. It returns what body returns.
func onProc0(procs int, seed uint64, body func(p *machine.Proc) time.Duration) time.Duration {
	m := machine.New(microParams(procs, seed))
	const parkedBase = 1 << 20
	var d time.Duration
	bodies := make([]func(*machine.Proc), procs)
	bodies[0] = func(p *machine.Proc) {
		p.Elapse(1 << 20) // let every other processor open its transaction and block
		d = body(p)
		for _, q := range m.Procs()[1:] {
			p.Wake(q)
		}
	}
	for i := 1; i < procs; i++ {
		id := uint64(i)
		bodies[i] = func(q *machine.Proc) {
			q.BeginHW(100+id, false)
			for k := uint64(0); k < 8; k++ {
				q.TxRead(parkedBase + (id*8+k)*mem.LineBytes)
			}
			q.Block()
			q.CommitHW()
		}
	}
	m.Run(bodies)
	return d
}

// txAccess times n transactional accesses by processor 0, cycling over
// 64 lines of its own, against procs-1 parked transactions.
func txAccess(procs int, write bool) func(int, uint64) time.Duration {
	return func(n int, seed uint64) time.Duration {
		return onProc0(procs, seed, func(p *machine.Proc) time.Duration {
			p.BeginHW(1, false)
			start := time.Now()
			for i := 0; i < n; i++ {
				addr := uint64(4096 + (i&63)*mem.LineBytes)
				if write {
					p.TxWrite(addr, uint64(i))
				} else {
					v, _ := p.TxRead(addr)
					microSink += v
				}
			}
			d := time.Since(start)
			p.CommitHW()
			return d
		})
	}
}

// handoff times procs processors each elapsing one cycle at a time, so
// that every Elapse crosses the horizon and hands the token on.
func handoff(procs int) func(int, uint64) time.Duration {
	return func(n int, _ uint64) time.Duration {
		e := sim.New(sim.Config{Procs: procs, MaxSteps: 1 << 62})
		per := n / procs
		bodies := make([]func(*sim.Proc), procs)
		for i := range bodies {
			bodies[i] = func(p *sim.Proc) {
				for k := 0; k < per; k++ {
					p.Elapse(1)
				}
			}
		}
		start := time.Now()
		e.Run(bodies)
		return time.Since(start)
	}
}

// atomicEmpty times n empty transactions on one system: the fixed price
// of its begin/commit path.
func atomicEmpty(kind harness.SystemKind) func(int, uint64) time.Duration {
	return func(n int, seed uint64) time.Duration {
		opt := microOptions(seed)
		m := machine.New(opt.Params)
		ex := harness.Build(kind, m, opt).Exec(m.Proc(0))
		var d time.Duration
		m.Run([]func(*machine.Proc){func(*machine.Proc) {
			start := time.Now()
			for i := 0; i < n; i++ {
				ex.Atomic(func(tm.Tx) {})
			}
			d = time.Since(start)
		}})
		return d
	}
}

// build times constructing one system n times at the evaluation's
// OTableRows, each on a fresh machine built outside the timed region.
func build(kind harness.SystemKind) func(int, uint64) time.Duration {
	return func(n int, seed uint64) time.Duration {
		opt := microOptions(seed)
		opt.OTableRows = 1 << 16
		opt.Params.MemBytes = 1 << 26
		var d time.Duration
		for i := 0; i < n; i++ {
			m := machine.New(opt.Params)
			start := time.Now()
			sys := harness.Build(kind, m, opt)
			d += time.Since(start)
			microSink += uint64(len(sys.Name()))
		}
		return d
	}
}

// txlibStore is a populated hash and tree over one machine's memory,
// reached through txlib.Direct.
type txlibStore struct {
	via   txlib.Direct
	arena *txlib.Arena
	hash  txlib.Hash
	tree  txlib.Tree
}

const txlibKeys = 4096

func newTxlibStore(seed uint64, populate bool) txlibStore {
	p := microParams(1, seed)
	p.MemBytes = 1 << 26
	m := machine.New(p)
	s := txlibStore{via: txlib.Direct{M: m}, arena: txlib.NewArena(m, nil, 16<<20)}
	s.hash = txlib.NewHash(s.via, s.arena, 1024)
	s.tree = txlib.NewTree(s.via, s.arena)
	if populate {
		for k := uint64(1); k <= txlibKeys; k++ {
			s.hash.Insert(s.via, s.arena, k, k)
			s.tree.Set(s.via, s.arena, lcg(k)>>40, k)
		}
	}
	return s
}

// microEntries lists the group D measurements in the order they run.
// Batch sizes are fixed so a batch lasts a few milliseconds: long enough
// to time, short enough that thirty batches of everything fit in seconds.
func microEntries() []microEntry {
	return []microEntry{
		{"sim.elapse_fast_ns", "ns", 400_000, func(n int, _ uint64) time.Duration {
			e := sim.New(sim.Config{Procs: 1, MaxSteps: 1 << 62})
			var d time.Duration
			e.Run([]func(*sim.Proc){func(p *sim.Proc) {
				start := time.Now()
				for i := 0; i < n; i++ {
					p.Elapse(1)
				}
				d = time.Since(start)
			}})
			return d
		}},
		{"sim.handoff_p2_ns", "ns", 8192, handoff(2)},
		{"sim.handoff_p32_ns", "ns", 8192, handoff(32)},
		{"sim.block_wake_ns", "ns", 4096, func(n int, _ uint64) time.Duration {
			e := sim.New(sim.Config{Procs: 2, MaxSteps: 1 << 62})
			var d time.Duration
			e.Run([]func(*sim.Proc){
				func(p *sim.Proc) {
					sleeper := e.Proc(1)
					start := time.Now()
					for i := 0; i < n; i++ {
						p.Elapse(1) // the sleeper runs and blocks
						p.Wake(sleeper)
					}
					d = time.Since(start)
				},
				func(p *sim.Proc) {
					for i := 0; i < n; i++ {
						p.Block()
					}
				},
			})
			return d
		}},

		{"mem.new_ms", "ms", 16, func(n int, _ uint64) time.Duration {
			start := time.Now()
			for i := 0; i < n; i++ {
				microSink += mem.New(64 << 20).Size()
			}
			return time.Since(start)
		}},
		{"mem.read_ns", "ns", 400_000, func(n int, seed uint64) time.Duration {
			m := warmMem()
			x := seed
			start := time.Now()
			for i := 0; i < n; i++ {
				x = lcg(x)
				microSink += m.Read64(x >> 44 &^ 7) // 1 MiB working set
			}
			return time.Since(start)
		}},
		{"mem.write_ns", "ns", 400_000, func(n int, seed uint64) time.Duration {
			m := warmMem()
			x := seed
			start := time.Now()
			for i := 0; i < n; i++ {
				x = lcg(x)
				m.Write64(x>>44&^7, x)
			}
			return time.Since(start)
		}},
		{"mem.write_cold_ns", "ns", 2048, func(n int, _ uint64) time.Duration {
			m := mem.New(64 << 20)
			start := time.Now()
			for i := 0; i < n; i++ {
				m.Write64(uint64(i)*mem.PageBytes, 1) // first touch of each page
			}
			return time.Since(start)
		}},
		{"mem.setufo_ns", "ns", 200_000, func(n int, _ uint64) time.Duration {
			m := warmMem()
			start := time.Now()
			for i := 0; i < n; i++ {
				m.SetUFO(uint64(i&4095)*mem.LineBytes, mem.UFOBits(i&3))
			}
			return time.Since(start)
		}},

		{"cache.l1_touch_hit_ns", "ns", 400_000, func(n int, _ uint64) time.Duration {
			c := cache.NewL1(32*1024, mem.LineBytes, 4)
			for l := uint64(0); l < 256; l++ {
				c.Touch(l)
			}
			start := time.Now()
			for i := 0; i < n; i++ {
				c.Touch(uint64(i & 255))
			}
			return time.Since(start)
		}},
		{"cache.l1_touch_miss_ns", "ns", 200_000, func(n int, _ uint64) time.Duration {
			c := cache.NewL1(32*1024, mem.LineBytes, 4)
			start := time.Now()
			for i := 0; i < n; i++ {
				c.Touch(uint64(i)) // a new line every time: miss and evict
			}
			return time.Since(start)
		}},
		{"cache.dir_update_ns", "ns", 100_000, func(n int, _ uint64) time.Duration {
			d := cache.NewDirectory()
			start := time.Now()
			for i := 0; i < n; i++ {
				d.Add(uint64(i&1023), i&15)
				d.Remove(uint64(i&1023), i&15)
			}
			return time.Since(start)
		}},

		{"machine.new_ms", "ms", 4, func(n int, seed uint64) time.Duration {
			p := microParams(16, seed)
			p.MemBytes = 1 << 26
			start := time.Now()
			for i := 0; i < n; i++ {
				microSink += uint64(len(machine.New(p).Procs()))
			}
			return time.Since(start)
		}},
		{"machine.ntread_ns", "ns", 50_000, func(n int, seed uint64) time.Duration {
			return onProc0(1, seed, func(p *machine.Proc) time.Duration {
				start := time.Now()
				for i := 0; i < n; i++ {
					v, _ := p.NTRead(uint64(4096 + (i&63)*mem.LineBytes))
					microSink += v
				}
				return time.Since(start)
			})
		}},
		{"machine.ntwrite_ns", "ns", 50_000, func(n int, seed uint64) time.Duration {
			return onProc0(1, seed, func(p *machine.Proc) time.Duration {
				start := time.Now()
				for i := 0; i < n; i++ {
					p.NTWrite(uint64(4096+(i&63)*mem.LineBytes), uint64(i))
				}
				return time.Since(start)
			})
		}},
		{"machine.txread_p2_ns", "ns", 20_000, txAccess(2, false)},
		{"machine.txread_p16_ns", "ns", 20_000, txAccess(16, false)},
		{"machine.txread_p64_ns", "ns", 20_000, txAccess(64, false)},
		{"machine.txwrite_p16_ns", "ns", 20_000, txAccess(16, true)},
		{"machine.hw_begin_commit_ns", "ns", 50_000, func(n int, seed uint64) time.Duration {
			return onProc0(1, seed, func(p *machine.Proc) time.Duration {
				start := time.Now()
				for i := 0; i < n; i++ {
					p.BeginHW(uint64(i+1), true)
					p.CommitHW()
				}
				return time.Since(start)
			})
		}},

		{"unbounded.atomic_empty_ns", "ns", 10_000, atomicEmpty(harness.UnboundedHTM)},
		{"core.atomic_empty_ns", "ns", 10_000, atomicEmpty(harness.UFOHybrid)},
		{"hytm.atomic_empty_ns", "ns", 10_000, atomicEmpty(harness.HyTM)},
		{"phtm.atomic_empty_ns", "ns", 10_000, atomicEmpty(harness.PhTM)},
		{"ustm.atomic_empty_ns", "ns", 10_000, atomicEmpty(harness.USTM)},
		{"tl2.atomic_empty_ns", "ns", 10_000, atomicEmpty(harness.TL2)},
		{"norec.atomic_empty_ns", "ns", 10_000, atomicEmpty(harness.HybridNOrec)},
		{"ustm.build_ms", "ms", 2, build(harness.USTM)},
		{"tl2.build_ms", "ms", 2, build(harness.TL2)},

		{"txlib.hash_get_ns", "ns", 50_000, func(n int, seed uint64) time.Duration {
			s := newTxlibStore(seed, true)
			x := seed
			start := time.Now()
			for i := 0; i < n; i++ {
				x = lcg(x)
				v, _ := s.hash.Get(s.via, 1+x>>52) // 1..4096, all present
				microSink += v
			}
			return time.Since(start)
		}},
		{"txlib.hash_insert_ns", "ns", 20_000, func(n int, seed uint64) time.Duration {
			s := newTxlibStore(seed, false)
			start := time.Now()
			for i := 0; i < n; i++ {
				s.hash.Insert(s.via, s.arena, uint64(i+1), uint64(i))
			}
			return time.Since(start)
		}},
		{"txlib.tree_get_ns", "ns", 20_000, func(n int, seed uint64) time.Duration {
			s := newTxlibStore(seed, true)
			start := time.Now()
			for i := 0; i < n; i++ {
				v, _ := s.tree.Get(s.via, lcg(uint64(1+i&(txlibKeys-1)))>>40)
				microSink += v
			}
			return time.Since(start)
		}},
		{"txlib.tree_set_ns", "ns", 10_000, func(n int, seed uint64) time.Duration {
			s := newTxlibStore(seed, false)
			x := seed
			start := time.Now()
			for i := 0; i < n; i++ {
				x = lcg(x)
				s.tree.Set(s.via, s.arena, x>>40, x)
			}
			return time.Since(start)
		}},
	}
}

// warmMem returns a 16 MiB memory whose first 1 MiB is materialised.
func warmMem() *mem.Memory {
	m := mem.New(microMemBytes)
	for a := uint64(0); a < 1<<20; a += mem.PageBytes {
		m.Write64(a, a)
	}
	return m
}
