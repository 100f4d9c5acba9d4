package litmus

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// The auto-enumerator: systematically generates every small litmus shape
// — threads holding at most one transaction of up to MaxTxOps operations
// plus up to MaxNTOps non-transactional operations, over a small shared
// variable set — so the curated suite's hand-picked anomalies are backed
// by a sweep that cannot miss a shape nobody thought of. Thread-order
// duplicates are canonicalized away, uninteresting programs (no sharing,
// no write, no read, or no transaction) are filtered, and when the space
// still exceeds MaxPrograms a seeded deterministic sample is taken and
// the drop is reported — never silent.

// EnumConfig bounds one enumeration.
type EnumConfig struct {
	// Threads is the number of threads per program (2 or 3).
	Threads int
	// Vars is the number of shared variables ops range over.
	Vars int
	// MaxTxOps bounds the single transaction's body (0 = no transaction
	// allowed in a thread shape).
	MaxTxOps int
	// MaxNTOps bounds the non-transactional operations per thread.
	MaxNTOps int
	// MaxPrograms caps how many programs are kept; 0 keeps everything.
	MaxPrograms int
	// Seed drives the deterministic sample when the cap binds.
	Seed uint64
}

// EnumResult is the generated program set plus accounting of what the
// cap dropped.
type EnumResult struct {
	Programs []*Program
	// Total is the number of distinct interesting programs enumerated
	// before sampling.
	Total int
	// Dropped is Total - len(Programs).
	Dropped int
}

// Enumerate generates cfg's program space. It records each candidate as
// its per-thread shape indices, in discovery order, samples over those,
// and builds only the programs it keeps.
func Enumerate(cfg EnumConfig) EnumResult {
	shapes := enumThreadShapes(cfg)
	// Threads are symmetric (up to register naming) and every shape is
	// distinct, so the thread permutations of one index tuple are one
	// program. Walking only the non-decreasing tuples, in lexicographic
	// order, visits each program once, as the permutation an odometer
	// over all tuples would meet first. cands holds the interesting ones
	// flattened, cfg.Threads indices each; a candidate's position is its
	// discovery serial.
	idx := make([]int, cfg.Threads)
	var cands []int32
	for {
		if interesting(shapes, idx) {
			for _, s := range idx {
				cands = append(cands, int32(s))
			}
		}
		pos := cfg.Threads - 1
		for pos >= 0 && idx[pos] == len(shapes)-1 {
			pos--
		}
		if pos < 0 {
			break
		}
		idx[pos]++
		for i := pos + 1; i < cfg.Threads; i++ {
			idx[i] = idx[pos]
		}
	}
	res := EnumResult{Total: len(cands) / cfg.Threads}
	keep := sampleSerials(res.Total, cfg.MaxPrograms, cfg.Seed)
	threads := make([]threadShape, cfg.Threads)
	for _, serial := range keep {
		for i := range threads {
			threads[i] = shapes[cands[serial*cfg.Threads+i]]
		}
		res.Programs = append(res.Programs, buildProgram(cfg, threads, serial))
	}
	res.Dropped = res.Total - len(res.Programs)
	return res
}

// threadShape is one thread's structure before variables get addresses,
// with the counts and the variable set interesting reads.
type threadShape struct {
	steps []Step
	key   string

	reads, writes, txs int
	vars               uint64 // bit v: the thread touches variable v
}

// enumThreadShapes lists every distinct thread shape under cfg: an
// optional transaction of 1..MaxTxOps operations placed at any position
// among 0..MaxNTOps non-transactional operations (or no transaction and
// 1..MaxNTOps non-transactional operations).
func enumThreadShapes(cfg EnumConfig) []threadShape {
	ops := enumOps(cfg.Vars)
	var shapes []threadShape
	add := func(steps []Step) {
		sh := threadShape{steps: steps, key: shapeKey(steps)}
		for _, st := range steps {
			if st.Tx {
				sh.txs++
			}
			for _, op := range st.Ops {
				sh.vars |= 1 << op.Var
				switch op.Kind {
				case OpRead:
					sh.reads++
				case OpWrite:
					sh.writes++
				}
			}
		}
		shapes = append(shapes, sh)
	}
	// Non-transactional op sequences, by length.
	ntSeqs := make([][][]Op, cfg.MaxNTOps+1)
	ntSeqs[0] = [][]Op{{}}
	for n := 1; n <= cfg.MaxNTOps; n++ {
		for _, prefix := range ntSeqs[n-1] {
			for _, op := range ops {
				ntSeqs[n] = append(ntSeqs[n], append(append([]Op(nil), prefix...), op))
			}
		}
	}
	// Transaction bodies, 1..MaxTxOps ops.
	var txBodies [][]Op
	cur := [][]Op{{}}
	for n := 1; n <= cfg.MaxTxOps; n++ {
		var next [][]Op
		for _, prefix := range cur {
			for _, op := range ops {
				body := append(append([]Op(nil), prefix...), op)
				next = append(next, body)
				txBodies = append(txBodies, body)
			}
		}
		cur = next
	}
	// Pure non-transactional threads.
	for n := 1; n <= cfg.MaxNTOps; n++ {
		for _, seq := range ntSeqs[n] {
			steps := make([]Step, 0, n)
			for _, op := range seq {
				steps = append(steps, NT(op))
			}
			add(steps)
		}
	}
	// One transaction at each position among the NT ops.
	for _, body := range txBodies {
		for n := 0; n <= cfg.MaxNTOps; n++ {
			for _, seq := range ntSeqs[n] {
				for pos := 0; pos <= n; pos++ {
					steps := make([]Step, 0, n+1)
					for _, op := range seq[:pos] {
						steps = append(steps, NT(op))
					}
					steps = append(steps, Atomic(body...))
					for _, op := range seq[pos:] {
						steps = append(steps, NT(op))
					}
					add(steps)
				}
			}
		}
	}
	return shapes
}

// enumOps lists the op alphabet: read or write of each variable. Write
// values are placeholders; buildProgram assigns distinct values.
func enumOps(vars int) []Op {
	out := make([]Op, 0, vars*2)
	for v := 0; v < vars; v++ {
		out = append(out, R(v), W(v, 0))
	}
	return out
}

// interesting filters program skeletons worth running — the program
// whose thread i has shape shapes[idx[i]]: some variable is touched by
// two threads, at least one write, at least one read, and at least one
// transaction (purely non-transactional programs only test the SC
// machine, which sb-nt in the curated suite already covers).
func interesting(shapes []threadShape, idx []int) bool {
	reads, writes, txs := 0, 0, 0
	var touched, shared uint64
	for _, s := range idx {
		sh := &shapes[s]
		reads, writes, txs = reads+sh.reads, writes+sh.writes, txs+sh.txs
		shared |= touched & sh.vars
		touched |= sh.vars
	}
	return txs > 0 && writes > 0 && reads > 0 && shared != 0
}

func shapeKey(steps []Step) string {
	var b strings.Builder
	for _, st := range steps {
		if st.Tx {
			b.WriteByte('[')
		}
		for _, op := range st.Ops {
			switch op.Kind {
			case OpRead:
				fmt.Fprintf(&b, "R%d", op.Var)
			case OpWrite:
				fmt.Fprintf(&b, "W%d", op.Var)
			case OpGuard:
				fmt.Fprintf(&b, "G%d", op.Var)
			case OpEffect:
				fmt.Fprintf(&b, "E%d", op.Var)
			case OpUnnest:
				b.WriteByte(')')
				if op.Val != 0 {
					b.WriteByte('!')
				}
			default: // fence, syscall, abort, nest
				b.WriteByte("FSA("[op.Kind-OpFence])
			}
		}
		if st.Tx {
			b.WriteByte(']')
		}
		b.WriteByte('.')
	}
	return b.String()
}

// buildProgram turns shapes into a runnable program.
func buildProgram(cfg EnumConfig, threads []threadShape, serial int) *Program {
	p := &Program{
		Name: fmt.Sprintf("gen-t%d-%04d", cfg.Threads, serial),
		Vars: cfg.Vars,
	}
	var keys []string
	for ti, th := range threads {
		keys = append(keys, th.key)
		p.Threads = append(p.Threads, newThread(ti, th.steps))
	}
	p.Doc = "auto-enumerated shape " + strings.Join(keys, " | ")
	return p
}

// newThread builds thread ti of a generated program (the enumerator's or
// the decoder's) from a copy of steps, giving each write and effect a
// value unique to its (thread, op) position so outcome states identify
// which write a read observed: thread ti owns values ti*8+1 … ti*8+8 of
// every block of 32.
func newThread(ti int, steps []Step) Thread {
	out := make([]Step, len(steps))
	pos := 0
	for si, st := range steps {
		ops := make([]Op, len(st.Ops))
		for oi, op := range st.Ops {
			if op.Kind == OpWrite || op.Kind == OpEffect {
				op.Val = uint64(pos/8*32 + ti*8 + pos%8 + 1)
			}
			ops[oi] = op
			pos++
		}
		out[si] = Step{Tx: st.Tx, Ops: ops}
	}
	return Thread{Name: fmt.Sprintf("t%d", ti), Steps: out}
}

// sampleSerials returns the serials of the candidates kept out of total:
// all of them when max is not positive or does not bind, else a deterministic
// seeded sample of max, in enumeration order.
func sampleSerials(total, max int, seed uint64) []int {
	idx := make([]int, total)
	for i := range idx {
		idx[i] = i
	}
	if max <= 0 || total <= max {
		return idx
	}
	// Partial Fisher-Yates over the serials, then sort the kept ones to
	// preserve order.
	rng := sim.NewRand(seed)
	for i := 0; i < max; i++ {
		j := i + rng.Intn(total-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	kept := idx[:max]
	sort.Ints(kept)
	return kept
}
