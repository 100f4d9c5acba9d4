package stamp

import (
	"strings"
	"testing"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/seq"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/txlib"
	"repro/internal/ustm"
)

func testMachine(procs int) *machine.Machine {
	p := machine.DefaultParams(procs)
	p.MemBytes = 1 << 26
	p.MaxSteps = 100_000_000
	return machine.New(p)
}

// runOn executes a workload on the given system factory and validates.
func runOn(t *testing.T, wl Workload, threads int, mkSys func(*machine.Machine) tm.System) {
	t.Helper()
	m := testMachine(threads)
	sys := mkSys(m)
	wl.Init(m, threads)
	bodies := make([]func(*machine.Proc), threads)
	for i := 0; i < threads; i++ {
		ex := sys.Exec(m.Proc(i))
		tid := i
		bodies[i] = func(*machine.Proc) { wl.Thread(tid, ex) }
	}
	m.Run(bodies)
	if err := wl.Validate(m); err != nil {
		t.Fatalf("validation on %s: %v", sys.Name(), err)
	}
}

func hybridSys(m *machine.Machine) tm.System {
	cfg := ustm.DefaultConfig()
	cfg.OTableRows = 1 << 13
	return core.New(m, cfg, core.Policy{}, cm.KindExponential)
}

func stmSys(m *machine.Machine) tm.System {
	cfg := ustm.DefaultConfig()
	cfg.OTableRows = 1 << 13
	return ustm.New(m, cfg)
}

func lockSys(m *machine.Machine) tm.System { return seq.New(m, seq.GlobalLock) }

func TestKMeansHighOnHybrid(t *testing.T) {
	runOn(t, KMeansHigh(200), 4, hybridSys)
}

func TestKMeansLowOnSTM(t *testing.T) {
	runOn(t, KMeansLow(200), 2, stmSys)
}

func TestKMeansSingleThread(t *testing.T) {
	runOn(t, KMeansHigh(100), 1, lockSys)
}

func TestKMeansMultipleIterations(t *testing.T) {
	k := KMeansHigh(80)
	k.Iterations = 3
	runOn(t, k, 2, hybridSys)
}

func TestVacationHighOnHybrid(t *testing.T) {
	runOn(t, VacationHigh(128, 20), 4, hybridSys)
}

func TestVacationLowOnSTM(t *testing.T) {
	runOn(t, VacationLow(128, 15), 2, stmSys)
}

func TestVacationOnLock(t *testing.T) {
	runOn(t, VacationHigh(96, 15), 2, lockSys)
}

// TestVacationInitMatchesInsertLoop: Init, which builds its trees in
// bulk, leaves memory word for word as Init did when it inserted each id
// into its tree right after allocating the line the id names.
func TestVacationInitMatchesInsertLoop(t *testing.T) {
	for _, relations := range []int{1, 2, 3, 96, 192, 2048} {
		for _, v := range []*Vacation{VacationHigh(relations, 4), VacationLow(relations, 4)} {
			m := testMachine(2)
			v.Init(m, 2)
			ref := testMachine(2)
			vacationInitByInsert(v, ref)
			brk := ref.Mem.Sbrk(0)
			if got := m.Mem.Sbrk(0); got != brk {
				t.Fatalf("QueryRangePct %d, %d relations: Init allocated up to %#x, the Insert loop to %#x", v.QueryRangePct, relations, got, brk)
			}
			for a := uint64(0); a < brk; a += mem.WordBytes {
				if got, want := m.Mem.Read64(a), ref.Mem.Read64(a); got != want {
					t.Fatalf("QueryRangePct %d, %d relations: word %#x is %#x after Init, %#x after the Insert loop", v.QueryRangePct, relations, a, got, want)
				}
			}
		}
	}
}

// vacationInitByInsert is Vacation.Init as an Insert loop: the reference
// for the bulk build.
func vacationInitByInsert(v *Vacation, m *machine.Machine) {
	d := txlib.Direct{M: m}
	setupA := txlib.NewArena(m, nil, uint64(v.Relations)*8*mem.LineBytes+1<<16)
	r := sim.NewRand(v.Seed)
	ids := make([]uint64, v.Relations)
	for i := range ids {
		ids[i] = uint64(i) + 1
	}
	shuffle := func() {
		for i := len(ids) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			ids[i], ids[j] = ids[j], ids[i]
		}
	}
	for t := 0; t < 3; t++ {
		tree := txlib.NewTree(d, setupA)
		shuffle()
		for _, id := range ids {
			res := setupA.Alloc(mem.LineBytes)
			d.Store(res+resTotal, uint64(1+r.Intn(5)))
			d.Store(res+resUsed, 0)
			d.Store(res+resPrice, uint64(50+r.Intn(500)))
			tree.Insert(d, setupA, id, res)
		}
	}
	customers := txlib.NewTree(d, setupA)
	shuffle()
	for _, id := range ids {
		customers.Insert(d, setupA, id, txlib.NewList(d, setupA).Head())
	}
	for i := 0; i < 2; i++ {
		txlib.NewArena(m, nil, uint64(v.TasksPerThread*8+64)*mem.LineBytes)
	}
}

func TestGenomeOnHybrid(t *testing.T) {
	runOn(t, NewGenome(150), 4, hybridSys)
}

func TestGenomeOnSTM(t *testing.T) {
	runOn(t, NewGenome(120), 2, stmSys)
}

func TestGenomeSingleThread(t *testing.T) {
	runOn(t, NewGenome(100), 1, hybridSys)
}

func TestFailoverWorkload(t *testing.T) {
	for _, rate := range []int{0, 50, 100} {
		runOn(t, NewFailover(25, rate), 3, hybridSys)
	}
}

func TestFailoverForcesSoftware(t *testing.T) {
	m := testMachine(2)
	sys := hybridSys(m)
	wl := NewFailover(30, 100) // every transaction forced to software
	wl.Init(m, 2)
	bodies := make([]func(*machine.Proc), 2)
	for i := 0; i < 2; i++ {
		ex := sys.Exec(m.Proc(i))
		tid := i
		bodies[i] = func(*machine.Proc) { wl.Thread(tid, ex) }
	}
	m.Run(bodies)
	st := tm.StatsOf(&m.Count)
	if st.SWCommits != 60 || st.HWCommits != 0 {
		t.Fatalf("stats = %v: 100%% rate must run everything in software", st)
	}
	if err := wl.Validate(m); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	m := testMachine(3)
	sys := hybridSys(m)
	b := NewBarrier(m, 3)
	arrivals := make([]uint64, 3)
	departures := make([]uint64, 3)
	var bodies []func(*machine.Proc)
	for i := 0; i < 3; i++ {
		ex := sys.Exec(m.Proc(i))
		tid := i
		bodies = append(bodies, func(p *machine.Proc) {
			p.Elapse(uint64(1000 * (tid + 1))) // stagger arrivals
			arrivals[tid] = p.Now()
			b.Wait(ex)
			departures[tid] = p.Now()
		})
	}
	m.Run(bodies)
	var lastArrival uint64
	for _, a := range arrivals {
		if a > lastArrival {
			lastArrival = a
		}
	}
	for i, d := range departures {
		if d < lastArrival {
			t.Fatalf("thread %d departed at %d before last arrival %d", i, d, lastArrival)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	m := testMachine(2)
	sys := hybridSys(m)
	b := NewBarrier(m, 2)
	var bodies []func(*machine.Proc)
	for i := 0; i < 2; i++ {
		ex := sys.Exec(m.Proc(i))
		tid := i
		bodies = append(bodies, func(p *machine.Proc) {
			for round := 0; round < 5; round++ {
				p.Elapse(uint64(100 * (tid + 1)))
				b.Wait(ex)
			}
		})
	}
	m.Run(bodies) // completing at all proves generations advance
}

func TestSplitCoversAllWork(t *testing.T) {
	for _, total := range []int{1, 7, 100} {
		for _, threads := range []int{1, 3, 8} {
			covered := 0
			prevHi := 0
			for i := 0; i < threads; i++ {
				lo, hi := split(total, threads, i)
				if lo != prevHi {
					t.Fatalf("split gap at thread %d", i)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != total || prevHi != total {
				t.Fatalf("split(%d,%d) covered %d", total, threads, covered)
			}
		}
	}
}

func TestSSCA2OnHybrid(t *testing.T) {
	runOn(t, NewSSCA2(64, 400), 4, hybridSys)
}

func TestSSCA2OnSTM(t *testing.T) {
	runOn(t, NewSSCA2(48, 200), 2, stmSys)
}

func TestSSCA2ScalesWell(t *testing.T) {
	// The "small txs, low contention" workload: 4 threads on the hybrid
	// should get a real speedup over 1 thread.
	cycles := func(threads int) uint64 {
		m := testMachine(threads)
		sys := hybridSys(m)
		wl := NewSSCA2(96, 600)
		wl.Init(m, threads)
		bodies := make([]func(*machine.Proc), threads)
		for i := 0; i < threads; i++ {
			ex := sys.Exec(m.Proc(i))
			tid := i
			bodies[i] = func(*machine.Proc) { wl.Thread(tid, ex) }
		}
		m.Run(bodies)
		if err := wl.Validate(m); err != nil {
			t.Fatal(err)
		}
		return m.Cycles()
	}
	one, four := cycles(1), cycles(4)
	if speedup := float64(one) / float64(four); speedup < 2.5 {
		t.Fatalf("ssca2 speedup at 4 threads = %.2f, want ≥2.5", speedup)
	}
}

func TestIntruderOnHybrid(t *testing.T) {
	runOn(t, NewIntruder(24, 4), 4, hybridSys)
}

func TestIntruderOnSTM(t *testing.T) {
	runOn(t, NewIntruder(16, 3), 2, stmSys)
}

func TestIntruderOnLock(t *testing.T) {
	runOn(t, NewIntruder(16, 4), 2, lockSys)
}

func TestLabyrinthOnHybrid(t *testing.T) {
	runOn(t, NewLabyrinth(24, 24, 4), 4, hybridSys)
}

func TestLabyrinthMostlyFailsOver(t *testing.T) {
	// Routes of ~96 lines overwhelm a shrunken L1: nearly every claim
	// must run in software.
	params := machine.DefaultParams(2)
	params.MemBytes = 1 << 26
	params.L1Bytes = 4 * 1024
	params.L1Ways = 2
	params.MaxSteps = 100_000_000
	m := machine.New(params)
	sys := hybridSys(m)
	wl := NewLabyrinth(32, 32, 5)
	wl.Init(m, 2)
	bodies := make([]func(*machine.Proc), 2)
	for i := 0; i < 2; i++ {
		ex := sys.Exec(m.Proc(i))
		tid := i
		bodies[i] = func(*machine.Proc) { wl.Thread(tid, ex) }
	}
	m.Run(bodies)
	if err := wl.Validate(m); err != nil {
		t.Fatal(err)
	}
	st := tm.StatsOf(&m.Count)
	if st.SWCommits < st.HWCommits {
		t.Fatalf("stats = %v: labyrinth claims should mostly run in software", st)
	}
}

func TestLabyrinthOnSTM(t *testing.T) {
	runOn(t, NewLabyrinth(20, 20, 3), 2, stmSys)
}

// TestListValidatorsCatchCorruption: Genome's and SSCA2's Validate walk
// their sorted lists in place. After a clean run, swapping a list's
// first two keys fails it as unsorted, and replacing its first key as
// foreign.
func TestListValidatorsCatchCorruption(t *testing.T) {
	genome, ssca2 := NewGenome(64), NewSSCA2(16, 200)
	for _, c := range []struct {
		wl    Workload
		lists func() []txlib.List // valid after Init
	}{
		{genome, func() []txlib.List { return genome.lists }},
		{ssca2, func() []txlib.List { return ssca2.adj }},
	} {
		m := testMachine(1)
		c.wl.Init(m, 1)
		ex := lockSys(m).Exec(m.Proc(0))
		m.Run([]func(*machine.Proc){func(*machine.Proc) { c.wl.Thread(0, ex) }})
		if err := c.wl.Validate(m); err != nil {
			t.Fatalf("%T before corruption: %v", c.wl, err)
		}
		d := txlib.Direct{M: m}
		var first, second uint64 // the first list with two nodes: its nodes' addresses (key at +0, next at +16)
		for _, l := range c.lists() {
			if first = d.Load(l.Head() + 16); first != 0 {
				if second = d.Load(first + 16); second != 0 {
					break
				}
			}
		}
		if second == 0 {
			t.Fatalf("%T: no list holds two keys", c.wl)
		}
		k1, k2 := d.Load(first), d.Load(second)
		d.Store(first, k2)
		d.Store(second, k1)
		if err := c.wl.Validate(m); err == nil || !strings.Contains(err.Error(), "unsorted") {
			t.Errorf("%T with two keys swapped: %v, want unsorted", c.wl, err)
		}
		d.Store(first, 1<<40)
		d.Store(second, k2)
		if err := c.wl.Validate(m); err == nil || !strings.Contains(err.Error(), "foreign") {
			t.Errorf("%T with a foreign first key: %v, want foreign", c.wl, err)
		}
	}
}
