// Package oltp models a production transactional KV/OLTP service as an
// open-loop workload: simulated clients issue requests under Poisson or
// bursty MMPP arrival processes with Zipfian key skew over a txlib
// hash+tree store, mixing point-reads, read-modify-writes, and
// range-scans. Unlike the closed-loop STAMP ports (§5.2), arrivals are
// independent of completions — a request's arrival timestamp is fixed by
// the trace, so a backlogged processor accrues queueing delay and the
// txstats recorder can report true response time (queueing + service),
// the quantity a service SLO is written against. The hot-key skew and
// stampede-shaped bursts exercise exactly the contention regime where
// the paper's hybrid designs (§5.3's failover microbenchmark hints at
// it) differ most.
//
// Every request is serviced by exactly one committed transaction
// (tm.Exec.Atomic retries until commit), so the workload validates an
// exact invariant: each record's final value equals its initial value
// plus the sum of all RMW deltas addressed to it across every trace.
package oltp

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// Op is a request kind in the service mix.
type Op uint8

// The three request kinds: point-read of one record, read-modify-write
// of one record, and an ordered range-scan of ScanLen records.
const (
	OpRead Op = iota
	OpRMW
	OpScan
)

// Request is one pre-generated client request. Arrival is the cycle the
// simulated client issued it; the servicing processor may reach it later
// (queueing delay). Traces are a pure function of (Config, proc), so a
// proc's request stream is identical at every thread count, scheduler,
// and -parallel worker count.
type Request struct {
	Arrival uint64 // issue cycle of the open-loop client
	Op      Op
	Key     uint64 // Zipf-drawn key in [1, Keys]; scan lower bound for OpScan
	Delta   uint64 // RMW increment
}

// Config fixes the service shape. All randomness derives from Seed, so
// equal configs generate byte-identical traces.
type Config struct {
	Keys            int         // distinct records in the store
	RequestsPerProc int         // open-loop trace length per processor
	Theta           float64     // Zipfian skew (0 = uniform)
	ReadPct         int         // percentage of point-reads
	RMWPct          int         // percentage of read-modify-writes
	ScanPct         int         // percentage of range-scans (rest of 100)
	ScanLen         int         // records visited per range-scan
	MeanGap         uint64      // mean interarrival gap per client stream, cycles
	Arrival         ArrivalKind // poisson or mmpp
	Seed            uint64
}

// seed-stream salts: one independent sim.Rand stream per purpose, so
// adding a draw to one stream never shifts another.
const (
	seedTrace = 0x9E37_79B9 // per-proc request traces (salted by proc)
	seedStore = 0x7F4A_7C15 // store-population insertion order
)

// reqOverheadCycles is the charged non-transactional cost of picking up
// one request (parse + dispatch) before its transaction starts.
const reqOverheadCycles = 24

// norm fills defaults so zero-ish configs still run. A mix that does not
// sum to 100 is a construction bug, not a default: it panics.
func (c Config) norm() Config {
	if c.Keys < 1 {
		c.Keys = 1
	}
	if c.RequestsPerProc < 0 {
		c.RequestsPerProc = 0
	}
	if c.ScanLen < 1 {
		c.ScanLen = 1
	}
	if c.MeanGap < 1 {
		c.MeanGap = 1
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalPoisson
	}
	if c.ReadPct+c.RMWPct+c.ScanPct != 100 {
		panic(fmt.Sprintf("oltp: mix %d/%d/%d (read/rmw/scan) must sum to 100", c.ReadPct, c.RMWPct, c.ScanPct))
	}
	return c
}

// Traces generates the request streams of procs 0..threads-1:
// interarrival gaps from the configured arrival process, keys from the
// Zipf distribution (one table, built once, behind every stream), ops
// from the mix percentages. A stream is a pure function of (Config,
// proc) — it draws from its own seeded generator — so it is the same
// at every thread count, and the harness's load accounting and every
// workload of one sweep point can share one generated set, read-only.
func (c Config) Traces(threads int) [][]Request {
	c = c.norm()
	cum := zipfTable(c.Keys, c.Theta)
	traces := make([][]Request, threads)
	for proc := range traces {
		r := sim.NewRand(c.Seed*1_000_003 + uint64(proc)*2_654_435_761 + seedTrace)
		z := &zipf{cum: cum, r: r}
		ar := newArrival(c.Arrival, c.MeanGap, r)
		reqs := make([]Request, c.RequestsPerProc)
		now := uint64(0)
		for i := range reqs {
			now += ar.next()
			key := z.next()
			mix := r.Intn(100)
			delta := r.Uint64()%997 + 1
			var op Op
			switch {
			case mix < c.ReadPct:
				op = OpRead
			case mix < c.ReadPct+c.RMWPct:
				op = OpRMW
			default:
				op = OpScan
			}
			reqs[i] = Request{Arrival: now, Op: op, Key: key, Delta: delta}
		}
		traces[proc] = reqs
	}
	return traces
}

// Offered reports the realized offered load of the run that replays
// traces: the total request count and the span (cycles from 0 to the
// last arrival across all streams). Since a run cannot finish before
// its last arrival, goodput computed against run cycles can never
// exceed it.
func Offered(traces [][]Request) (requests, span uint64) {
	for _, tr := range traces {
		requests += uint64(len(tr))
		if n := len(tr); n > 0 && tr[n-1].Arrival > span {
			span = tr[n-1].Arrival
		}
	}
	return requests, span
}

// Workload is the open-loop service benchmark; it satisfies
// stamp.Workload structurally, so the harness drives it like any STAMP
// port.
type Workload struct {
	cfg Config

	hash    txlib.Hash
	tree    txlib.Tree
	traces  [][]Request
	threads int

	// The store's layout, which Init computes and Validate checks, in
	// one allocation: the keys in insertion order; by key-1, each key's
	// record, hash node and tree node; and txlib's working space.
	order, records, hnodes, tnodes, scratch []uint64
}

// New builds the workload for cfg (normalized); Init generates its
// traces.
func New(cfg Config) *Workload { return &Workload{cfg: cfg.norm()} }

// Replay is New over traces the caller generated — cfg.Traces(threads)
// for the thread count the workload will run at — so the workloads of
// one sweep point share one set. The workload only reads them.
func Replay(cfg Config, traces [][]Request) *Workload {
	return &Workload{cfg: cfg.norm(), traces: traces}
}

// RecordAddr returns the simulated address of key's record line (tests
// use it to assert contention attribution to the hot line).
func (w *Workload) RecordAddr(key uint64) uint64 { return w.records[key-1] }

// initialValue is key k's store value before any request runs.
func initialValue(key uint64) uint64 { return key*3 + 1 }

// Init populates the store: one line-aligned record per key (value at
// word 0) indexed by both a chained hash (point lookups) and a BST
// (ordered scans). Insertion order is a seeded shuffle so the unbalanced
// tree stays at its expected O(log n) depth. Lines are allocated as an
// Insert loop would allocate them — per key, in that order, a record,
// its hash node and its tree node — and txlib's bulk builds then store
// the hash and the tree Insert would leave, each in ascending address
// order, without loading a word.
func (w *Workload) Init(m *machine.Machine, threads int) {
	c := w.cfg
	n := c.Keys
	w.threads = threads
	via := txlib.Direct{M: m}
	arena := txlib.NewArena(m, nil, uint64(n+64)*4*mem.LineBytes)

	buckets := uint64(1)
	for buckets*2 <= uint64(n) {
		buckets *= 2
	}
	w.hash = txlib.NewHash(via, arena, buckets)
	w.tree = txlib.NewTree(via, arena)

	tab := make([]uint64, 7*n)
	w.order, w.records, w.hnodes, w.tnodes, w.scratch = tab[:n], tab[n:2*n], tab[2*n:3*n], tab[3*n:4*n], tab[4*n:]
	for i := range w.order {
		w.order[i] = uint64(i + 1)
	}
	r := sim.NewRand(c.Seed*1_000_003 + seedStore)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		w.order[i], w.order[j] = w.order[j], w.order[i]
	}

	for _, key := range w.order {
		rec := arena.Alloc(8) // line-aligned: one record per line
		via.Store(rec, initialValue(key))
		w.records[key-1] = rec
		w.hnodes[key-1] = w.hash.NewNode(arena)
		w.tnodes[key-1] = w.tree.NewNode(arena)
	}
	w.hash.Build(via, w.order, w.hnodes, w.records, w.scratch)
	w.tree.Build(via, w.order, w.tnodes, w.records, w.scratch)

	if w.traces == nil {
		w.traces = c.Traces(threads)
	} else if len(w.traces) != threads {
		panic(fmt.Sprintf("oltp: replaying %d traces on %d threads", len(w.traces), threads))
	}
}

// Thread replays proc i's request trace. For each request the proc
// advances to the arrival cycle if idle (ElapseUntil is a no-op when
// backlogged — that is where queueing delay comes from), tags the
// transaction with the arrival timestamp for response-time accounting,
// then services the request in exactly one committed transaction. All
// randomness was pre-drawn into the trace, so transaction bodies are
// idempotent under re-execution. The three bodies are built once, over
// the request the loop assigns, so a request allocates nothing.
func (w *Workload) Thread(i int, ex tm.Exec) {
	p := ex.Proc()
	var rq Request
	read := func(tx tm.Tx) {
		if rec, ok := w.hash.Get(tx, rq.Key); ok {
			_ = tx.Load(rec)
		}
	}
	rmw := func(tx tm.Tx) {
		if rec, ok := w.hash.Get(tx, rq.Key); ok {
			tx.Store(rec, tx.Load(rec)+rq.Delta)
		}
	}
	scan := func(tx tm.Tx) {
		left := w.cfg.ScanLen
		w.tree.Scan(tx, rq.Key, func(_, rec, _ uint64) bool {
			_ = tx.Load(rec)
			left--
			return left > 0
		})
	}
	for _, rq = range w.traces[i] {
		p.ElapseUntil(rq.Arrival)
		p.TxLifeArrival(rq.Arrival)
		p.Elapse(reqOverheadCycles)
		switch rq.Op {
		case OpRead:
			ex.Atomic(read)
		case OpRMW:
			ex.Atomic(rmw)
		case OpScan:
			ex.Atomic(scan)
		}
	}
}

// Validate checks the exact end-state invariant: every record holds its
// initial value plus the sum of all RMW deltas addressed to its key
// (each request commits exactly once), and the hash and the tree are
// word for word what Init stored. Records, hash and tree are each read
// in ascending address order, as Init wrote them; every word Init wrote
// is compared, zeros included. That is stronger than a Get per key, an
// entry count and an in-order walk, all of which the built store passes.
func (w *Workload) Validate(m *machine.Machine) error {
	via := txlib.Direct{M: m}

	want := w.scratch[:len(w.order)]
	for k := range want {
		want[k] = initialValue(uint64(k + 1))
	}
	for i := 0; i < w.threads; i++ {
		for _, rq := range w.traces[i] {
			if rq.Op == OpRMW {
				want[rq.Key-1] += rq.Delta
			}
		}
	}
	for _, key := range w.order {
		if got := via.Load(w.records[key-1]); got != want[key-1] {
			return validErr("key %d: record value %d, want %d", key, got, want[key-1])
		}
	}

	if err := w.hash.Check(via, w.order, w.hnodes, w.records, w.scratch); err != nil {
		return validErr("%v", err)
	}
	if err := w.tree.Check(via, w.order, w.tnodes, w.records, w.scratch); err != nil {
		return validErr("%v", err)
	}
	return nil
}

func validErr(format string, args ...any) error {
	return fmt.Errorf("oltp: "+format, args...)
}
