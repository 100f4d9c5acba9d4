package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/oltp"
	"repro/internal/sim"
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
// workloads, the leftover cell on each kind of system, an sle and a hytm
// pair, two cells that halt mid-transaction and, last, five scalemix
// cells at 200 (one per scale system), 8, 130 and 70 processors, whose
// directory records are four, one, three and two words per mask:
// directory pages blanked at one record stride, and chunks cut at one,
// are handed to a machine that reads them at another, and a machine
// wider than its predecessor builds its missing L1s in one batch.
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
	// Two cells each of the two systems whose hooks once captured their
	// cell's system, on the failover workload: run after the other on a
	// worker, the second's contexts are the first's, hooks and all.
	for _, sys := range []SystemKind{SLE, HyTM, SLE, HyTM} {
		jobs = append(jobs, Job{System: sys, Threads: 2, Opt: options(), Factory: factories[len(factories)-1]})
	}
	// Two cells that run out of steps mid-transaction, every observer on:
	// the worker releases a halted cell's machine like any other.
	for _, c := range []struct {
		sys     SystemKind
		f       WorkloadFactory
		threads int
	}{{UFOHybrid, factories[1], 4}, {USTMUFO, factories[2], 2}} {
		opt := options()
		opt.Params.MaxSteps, opt.TxStats, opt.Contention = 100, true, true
		jobs = append(jobs, Job{System: c.sys, Factory: c.f, Threads: c.threads, Opt: opt})
	}
	// One scalemix factory, as ScaleSweep has: its cells share one table
	// of expected digests across workers.
	scale := ScaleBenchmark(ScaleSmall)
	for i, procs := range []int{200, 200, 8, 130, 70} {
		jobs = append(jobs, Job{System: ScaleSystems[i%2], Threads: procs, Opt: options(), Factory: scale})
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
// and 4 workers, must equal the same job run alone on a fresh arena; so
// must the 8-processor cell on both sides of the 130-processor one, the
// fourth order, which on one worker changes the record width and back.
func TestReuseDifferential(t *testing.T) {
	jobs := reuseJobs()
	alone := make([]Result, len(jobs))
	for i, j := range jobs {
		alone[i] = runOn(new(machine.Arena), j)
		var halt *sim.Halt
		if j.Opt.Params.MaxSteps != 100 && alone[i].Err != nil ||
			j.Opt.Params.MaxSteps == 100 && (!errors.As(alone[i].Err, &halt) || halt.Kind != "budget" || alone[i].TxStats.InFlight == 0) {
			t.Fatalf("%s, alone: %v, want a budget halt mid-transaction exactly for the starved cells", describe(j), alone[i].Err)
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
			var results []Result // each cell's Err, the halted ones' too, is compared below
			done := make(chan struct{})
			go func() {
				defer close(done)
				results, _ = Parallel(workers).Execute(shuffled)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				t.Fatalf("shuffle %d, %d workers: the sweep hung (a cell is spinning on a predecessor's leftovers)", shuffle, workers)
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
// its step budget dies mid-transaction, and its worker releases its
// machine and reuses the arena like any other's. On one worker, a
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
	if want := runOn(new(machine.Arena), jobs[2]); !reflect.DeepEqual(results[2], want) {
		t.Errorf("normal cell after the failed ones: cycles %d, stats %+v; alone: cycles %d, stats %+v",
			results[2].Cycles, results[2].Stats, want.Cycles, want.Stats)
	}
}

// TestSecondCellReusesArena: after the first cell on a worker, an
// identical cell allocates no memory pages, directory pages, L1 slabs,
// otable or stripe table — under 256 KiB in all (plus raceSlack under
// -race, zero otherwise), where the stripe table alone used to be 2 MiB —
// and no engine, processor, transaction buffer, metric name or TM
// context: only what its TM system and workload build. On every system
// its mallocs stay within 4 of the counts measured when the arena began
// keeping each processor's TM contexts (plus raceMallocSlack): 31 to 51,
// where they were 35 to 71 before and 154–168 before the engine and
// processors moved into the arena.
func TestSecondCellReusesArena(t *testing.T) {
	kmeans := Benchmarks(ScaleSmall)[1]
	mallocs := map[SystemKind]uint64{
		Sequential: 31 + 4, GlobalLock: 46 + 4, UnboundedHTM: 47 + 4, UFOHybrid: 51 + 4,
		HyTM: 51 + 4, PhTM: 51 + 4, USTM: 50 + 4, USTMUFO: 50 + 4, TL2: 48 + 4,
		HybridNOrec: 47 + 4, SLE: 48 + 4,
	}
	for _, sys := range AllSystems {
		threads := 2
		if sys == Sequential {
			threads = 1
		}
		bound := mallocs[sys] + raceMallocSlack
		job := Job{System: sys, Factory: kmeans, Threads: threads, Opt: testOptions()}
		var after []runtime.MemStats // at the end of each cell
		r := &Runner{Workers: 1, Progress: func(Progress) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			after = append(after, ms)
		}}
		if _, err := r.Execute([]Job{job, job, job}); err != nil {
			t.Fatal(err)
		}
		for cell := 1; cell <= 2; cell++ {
			if got := after[cell].TotalAlloc - after[cell-1].TotalAlloc; got > 256<<10+raceSlack {
				t.Errorf("%s: cell %d on the worker allocated %d KiB, want under 256", sys, cell+1, got>>10)
			}
			if got := after[cell].Mallocs - after[cell-1].Mallocs; got > bound {
				t.Errorf("%s: cell %d on the worker made %d allocations, want at most %d", sys, cell+1, got, bound)
			}
		}
	}
}

// TestExecAllocs: a processor's TM context is built once per arena. On
// every system, an Exec in the second cell on an arena allocates
// nothing, and the first Exec on a new machine's processor no more than
// its entry: the count before the arena kept contexts (DESIGN.md §42), or
// lower where a later change lowered it, so machine.New callers do not
// pay for the slot.
func TestExecAllocs(t *testing.T) {
	const runs = 4
	freshBefore := map[SystemKind]float64{
		Sequential: 1, GlobalLock: 1, UnboundedHTM: 1, UFOHybrid: 5, HyTM: 3, PhTM: 6,
		USTM: 3, USTMUFO: 3, TL2: 2, HybridNOrec: 6, SLE: 4,
	}
	for _, kind := range AllSystems {
		opt := testOptions()
		opt.Params.Procs = 1
		// Each run execs on a machine of its own, built beforehand.
		var warm, fresh [runs + 1]func()
		for i := range warm {
			arena := new(machine.Arena)
			m := arena.New(opt.Params)
			Build(kind, m, opt).Exec(m.Proc(0))
			m.Release()
			m = arena.New(opt.Params)
			sys := Build(kind, m, opt)
			warm[i] = func() { sys.Exec(m.Proc(0)) }
			fm := machine.New(opt.Params)
			fsys := Build(kind, fm, opt)
			fresh[i] = func() { fsys.Exec(fm.Proc(0)) }
		}
		each := func(fs []func()) float64 {
			k := 0
			return testing.AllocsPerRun(runs, func() { fs[k](); k++ })
		}
		if got := each(warm[:]); got > raceMallocSlack {
			t.Errorf("%s: Exec in a second cell made %.0f allocations, want none", kind, got)
		}
		if got, before := each(fresh[:]), freshBefore[kind]; got > before+raceMallocSlack {
			t.Errorf("%s: Exec on a new machine made %.0f allocations, %.0f before the arena kept contexts", kind, got, before)
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
