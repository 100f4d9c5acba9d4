package harness

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/oltp"
	"repro/internal/stamp"
	"repro/internal/tm"
)

// leftover is the cell a reused arena has to survive. It ends normally,
// so its worker releases and reuses its arena, yet leaves behind
// everything a later cell must not see: memory grown past
// Params.MemBytes with data on the far pages, UFO protection still
// installed, and — when abandon is set — a transaction its one thread
// walked out of: otable rows locked in the chain with their entries,
// UFO bits under ustm+ufo, SR/SW bits and an open hardware transaction
// under the HTMs. Its cycle count depends on the memory size and the
// allocation frontier it was handed, so a stale one shows.
type leftover struct {
	abandon         bool
	size, base, far uint64
}

func (w *leftover) Name() string { return "leftover" }

func (w *leftover) Init(m *machine.Machine, threads int) {
	w.size = m.Mem.Size()
	w.base = m.Mem.Sbrk(128 * mem.LineBytes)
	w.far = m.Mem.Sbrk(2 * w.size) // past MemBytes: the memory doubles twice
}

func (w *leftover) farWord(i int) uint64 { return w.far + 2*w.size - uint64(i+1)*mem.PageBytes }

func (w *leftover) Thread(i int, ex tm.Exec) {
	p := ex.Proc()
	p.Elapse(w.size>>12 + w.base>>6)
	ex.Atomic(func(tx tm.Tx) { tx.Store(w.farWord(i), uint64(i)+1) })
	for l := uint64(0); l < 8; l++ {
		p.SetUFO(w.base+(64+8*uint64(i)+l)*mem.LineBytes, mem.UFOFaultAll)
	}
	if w.abandon {
		defer func() { _ = recover() }()
		ex.Atomic(func(tx tm.Tx) {
			for l := uint64(0); l < 64; l++ {
				tx.Store(w.base+l*mem.LineBytes, l+1)
			}
			panic("walked out")
		})
	}
}

func (w *leftover) Validate(m *machine.Machine) error {
	if got := m.Mem.Read64(w.farWord(0)); got != 1 {
		return fmt.Errorf("leftover: far word reads %d, want 1", got)
	}
	return nil
}

// reuseJobs mixes everything that shapes a cell's use of the arena: all
// ten systems, 1 to 16 processors, two memory sizes, two otable sizes,
// two L1 geometries, three seeds, every observer on and off, seven
// workloads, the leftover cell on each kind of system and, last, three
// scalemix cells at 8, 130 and 70 processors, whose directory records
// are one, three and two words per mask: directory pages blanked at one
// record stride are handed to a machine that reads them at another.
func reuseJobs() []Job {
	// A cell that meets a predecessor's leftovers tends to spin on them:
	// a step budget near its needs makes it a failed cell in
	// milliseconds, not a ten-minute test timeout.
	options := func() Options {
		opt := testOptions()
		opt.Params.MaxSteps = 2_000_000
		return opt
	}
	factories := append(Benchmarks(ScaleSmall), OLTPBenchmark(ScaleSmall),
		WorkloadFactory{Name: "failover", New: func() stamp.Workload { return stamp.NewFailover(12, 20) }})
	var jobs []Job
	for n := 0; n < 2*len(AllSystems); n++ {
		opt := options()
		opt.Params.Seed = uint64(1 + n%3)
		if n%2 == 1 {
			opt.Params.MemBytes = 1 << 22
		}
		if n%3 == 0 {
			opt.OTableRows = 1 << 8
		}
		if n%4 >= 2 {
			opt.Params.L1Bytes, opt.Params.L1Ways = 8<<10, 2
		}
		opt.TxStats, opt.Contention = n%2 == 0, n%3 == 1
		job := Job{System: AllSystems[n%len(AllSystems)], Factory: factories[n%len(factories)], Opt: opt,
			Threads: []int{1, 2, 4, 16}[(n+n/len(AllSystems))%4]}
		if job.System == Sequential {
			job.Threads = 1
		}
		jobs = append(jobs, job)
	}
	for _, sys := range []SystemKind{USTM, USTMUFO, UFOHybrid, UnboundedHTM, TL2, HybridNOrec} {
		jobs = append(jobs, Job{System: sys, Threads: 1, Opt: options(),
			Factory: WorkloadFactory{Name: "leftover", New: func() stamp.Workload { return &leftover{abandon: true} }}})
	}
	// One generated set of OLTP traces replayed by four systems' cells,
	// as Runner.OLTP shares them: concurrent workers only read it.
	cfg := oltpBase(ScaleSmall, DefaultOLTPSweep())
	traces := cfg.Traces(2)
	for _, sys := range []SystemKind{UFOHybrid, TL2, USTM, HybridNOrec} {
		jobs = append(jobs, Job{System: sys, Threads: 2, Opt: options(),
			Factory: WorkloadFactory{Name: "oltp", New: func() stamp.Workload { return oltp.Replay(cfg, traces) }}})
	}
	for _, sys := range []SystemKind{GlobalLock, PhTM, HyTM} {
		jobs = append(jobs, Job{System: sys, Threads: 4, Opt: options(),
			Factory: WorkloadFactory{Name: "leftover", New: func() stamp.Workload { return new(leftover) }}})
	}
	for i, procs := range []int{8, 130, 70} {
		jobs = append(jobs, Job{System: ScaleSystems[i%2], Threads: procs, Opt: options(), Factory: ScaleBenchmark(ScaleSmall)})
	}
	return jobs
}

func describe(j Job) string {
	return fmt.Sprintf("%s on %s, %d threads, seed %d", j.Factory.Name, j.System, j.Threads, j.Opt.Params.Seed)
}

// TestReuseDifferential extends the determinism guarantee to arena
// reuse: a cell's Result — cycles, tm.Stats, machine.Counters, metrics
// snapshot, txstats and contention reports — is a pure function of its
// Job, whatever ran before it on its worker. Every job of a
// deliberately heterogeneous list, run in three seeded shuffles at 1, 2
// and 4 workers, must equal the same job run alone through Run; so must
// the 8-processor cell on both sides of the 130-processor one, the
// fourth order, which on one worker changes the record width and back.
func TestReuseDifferential(t *testing.T) {
	jobs := reuseJobs()
	alone := make([]Result, len(jobs))
	for i, j := range jobs {
		alone[i] = Run(j.System, j.Factory.New(), j.Threads, j.Opt)
		if alone[i].Err != nil {
			t.Fatalf("%s, alone: %v", describe(j), alone[i].Err)
		}
	}
	for shuffle := int64(1); shuffle <= 4; shuffle++ {
		order := rand.New(rand.NewSource(shuffle)).Perm(len(jobs))
		if n := len(jobs); shuffle == 4 {
			order = []int{n - 3, n - 2, n - 3}
		}
		shuffled := make([]Job, len(order))
		for k, i := range order {
			shuffled[k] = jobs[i]
		}
		for _, workers := range []int{1, 2, 4} {
			// A one-processor cell spinning on what a predecessor left
			// (a stale otable owner, a protected line) never spends a
			// scheduler step, so no budget ends it: fail, don't hang.
			var results []Result
			var err error
			done := make(chan struct{})
			go func() {
				defer close(done)
				results, err = Parallel(workers).Execute(shuffled)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				t.Fatalf("shuffle %d, %d workers: the sweep hung (a cell is spinning on a predecessor's leftovers)", shuffle, workers)
			}
			if err != nil {
				t.Errorf("shuffle %d, %d workers: %v", shuffle, workers, err)
			}
			for k, i := range order {
				if got, want := results[k], alone[i]; !reflect.DeepEqual(got, want) {
					t.Errorf("shuffle %d, %d workers, cell %d (%s, after %s): result differs from the cell run alone: cycles %d vs %d, stats %+v vs %+v",
						shuffle, workers, k, describe(jobs[i]), describe(shuffled[max(k-workers, 0)]), got.Cycles, want.Cycles, got.Stats, want.Stats)
				}
			}
		}
	}
}

// midTxPanic dies inside a transaction that has already written.
type midTxPanic struct{ panickyWorkload }

func (midTxPanic) Thread(i int, ex tm.Exec) {
	ex.Atomic(func(tx tm.Tx) {
		for l := uint64(0); l < 256; l++ {
			tx.Store(mem.PageBytes+l*mem.LineBytes, 0xdead)
		}
		panic("kaboom")
	})
}

// TestFailedCellDoesNotPoisonWorker: a cell that panics or runs out of
// its step budget dies mid-transaction and releases nothing, so its
// worker must not carry its arena into the next cell. On one worker, a
// workload panicking inside a software transaction, then a cell
// exhausting MaxSteps, then a normal cell: the normal cell's Result is
// the one it has when run alone.
func TestFailedCellDoesNotPoisonWorker(t *testing.T) {
	opt := testOptions()
	kmeans := Benchmarks(ScaleSmall)[1]
	starved := opt
	starved.Params.MaxSteps = 100
	jobs := []Job{
		{System: USTMUFO, Threads: 2, Opt: opt,
			Factory: WorkloadFactory{Name: "boom", New: func() stamp.Workload { return midTxPanic{} }}},
		{System: UFOHybrid, Factory: kmeans, Threads: 4, Opt: starved},
		{System: USTMUFO, Factory: kmeans, Threads: 2, Opt: opt},
	}
	results, err := Parallel(1).Execute(jobs)
	if err == nil || results[0].Err == nil || results[1].Err == nil {
		t.Fatalf("the failing cells did not fail: %v, %v", results[0].Err, results[1].Err)
	}
	if results[2].Err != nil {
		t.Fatalf("normal cell after the failed ones: %v", results[2].Err)
	}
	if want := Run(USTMUFO, kmeans.New(), 2, opt); !reflect.DeepEqual(results[2], want) {
		t.Errorf("normal cell after the failed ones: cycles %d, stats %+v; alone: cycles %d, stats %+v",
			results[2].Cycles, results[2].Stats, want.Cycles, want.Stats)
	}
}

// TestSecondCellReusesArena: after the first cell on a worker, an
// identical cell allocates no memory pages, directory pages, L1 slabs,
// otable or stripe table — under 256 KiB in all (plus raceSlack under
// -race, zero otherwise), where the stripe table alone used to be 2 MiB.
func TestSecondCellReusesArena(t *testing.T) {
	kmeans := Benchmarks(ScaleSmall)[1]
	for _, sys := range []SystemKind{TL2, USTMUFO, UFOHybrid} {
		job := Job{System: sys, Factory: kmeans, Threads: 2, Opt: testOptions()}
		var after []uint64 // MemStats.TotalAlloc at the end of each cell
		r := &Runner{Workers: 1, Progress: func(Progress) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			after = append(after, ms.TotalAlloc)
		}}
		if _, err := r.Execute([]Job{job, job, job}); err != nil {
			t.Fatal(err)
		}
		for cell := 1; cell <= 2; cell++ {
			if got := after[cell] - after[cell-1]; got > 256<<10+raceSlack {
				t.Errorf("%s: cell %d on the worker allocated %d KiB, want under 256", sys, cell+1, got>>10)
			}
		}
	}
}

// TestCellAllocsIndependentOfTransactionCount: a cell allocates for its
// processors and the lines it touches, not for its transactions. One oltp
// cell at N and at 4N requests per processor, same worker and arena, on
// every system — the software paths used to allocate per transaction
// (otable records and conflict lists under ustm+ufo and ufo-hybrid, the
// commit's lock list under tl2) and the workload a closure per body
// (everywhere, sequential included): the extra mallocs must stay under
// 2 % of the extra transactions.
func TestCellAllocsIndependentOfTransactionCount(t *testing.T) {
	const n = 150
	cell := func(sys SystemKind, threads, requests int) Job {
		cfg := oltpBase(ScaleSmall, DefaultOLTPSweep())
		cfg.RequestsPerProc = requests
		f := WorkloadFactory{Name: "oltp", New: func() stamp.Workload { return oltp.New(cfg) }}
		return Job{System: sys, Factory: f, Threads: threads, Opt: testOptions()}
	}
	for _, sys := range AllSystems {
		threads := 4
		if sys == Sequential {
			threads = 1
		}
		var after []uint64 // MemStats.Mallocs at the end of each cell
		r := &Runner{Workers: 1, Progress: func(Progress) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			after = append(after, ms.Mallocs)
		}}
		// The first cell grows the arena and the second 4N cell every
		// per-processor log; the last two are the measurement.
		jobs := []Job{cell(sys, threads, 4*n), cell(sys, threads, n), cell(sys, threads, 4*n)}
		if _, err := r.Execute(jobs); err != nil {
			t.Fatal(err)
		}
		small, large := after[1]-after[0], after[2]-after[1]
		added := uint64(3 * n * threads)
		if large > small+added/50 {
			t.Errorf("%s: %d mallocs at %d requests per processor, %d at %d: %d more for %d more transactions, want under 2%%",
				sys, small, n, large, 4*n, large-small, added)
		}
	}
}
