package sim

import (
	"fmt"
	"testing"
)

// These tests pin the run-ahead fast path (DESIGN.md §12) to the retained
// reference scheduler (Config.Reference): both must produce exactly the
// same step sequence — the interleaving of (processor, clock) pairs across
// every scheduling point — on the same script.

type step struct {
	id  int
	now uint64
}

// schedConfigs enumerates the scheduler implementations under test on top
// of base. The reference scheduler is the executable specification.
func schedConfigs(base Config) map[string]Config {
	ref := base
	ref.Reference = true
	return map[string]Config{
		"fast":      base,
		"reference": ref,
	}
}

func diffTraces(t *testing.T, got, ref []step, label string) {
	t.Helper()
	n := len(got)
	if len(ref) < n {
		n = len(ref)
	}
	for i := 0; i < n; i++ {
		if got[i] != ref[i] {
			t.Fatalf("%s: schedules diverge at step %d: got %+v, reference %+v", label, i, got[i], ref[i])
		}
	}
	if len(got) != len(ref) {
		t.Fatalf("%s: schedule lengths differ: got %d, reference %d", label, len(got), len(ref))
	}
}

// TestScheduleTraceEquivalenceFixedScript drives a handcrafted script
// through both schedulers: clock ties (ID tie-break), zero-cycle elapses,
// a block/wake chain, and quantum-boundary crossings.
func TestScheduleTraceEquivalenceFixedScript(t *testing.T) {
	run := func(cfg Config) []step {
		cfg.Procs, cfg.Quantum = 3, 64
		e := New(cfg)
		var trace []step
		at := func(p *Proc) {
			trace = append(trace, step{p.ID(), p.Now()})
		}
		sleeper := e.Proc(2)
		e.Run([]func(*Proc){
			func(p *Proc) {
				at(p)
				p.Elapse(10) // tie with proc 1 at 10
				at(p)
				p.Elapse(0) // zero advance: tie-break must still hold
				at(p)
				p.Elapse(100) // crosses the quantum boundary at 64
				at(p)
				p.Wake(sleeper)
				p.Elapse(5)
				at(p)
			},
			func(p *Proc) {
				at(p)
				p.Elapse(10)
				at(p)
				p.Elapse(10)
				at(p)
				p.Elapse(200)
				at(p)
			},
			func(p *Proc) {
				at(p)
				p.Elapse(1)
				at(p)
				p.Block() // woken by proc 0 at cycle 110
				at(p)
				p.Elapse(3)
				at(p)
			},
		})
		return trace
	}
	ref := run(Config{Reference: true})
	for name, cfg := range schedConfigs(Config{}) {
		diffTraces(t, run(cfg), ref, "fixed script/"+name)
	}
}

// TestScheduleTraceEquivalenceRandomScripts is the property test: seeded
// random Elapse/Block/Wake scripts must schedule identically under every
// implementation. Blocking is only chosen when another processor is
// neither done nor blocked (so someone can deliver the wakeup), and every
// finishing processor drains the sleeper list; both schedulers see the
// same shared state exactly because the schedules match — any divergence
// shows up as a trace mismatch.
func TestScheduleTraceEquivalenceRandomScripts(t *testing.T) {
	for _, procs := range []int{2, 3, 5, 8} {
		for _, quantum := range []uint64{0, 97} {
			for seed := uint64(1); seed <= 5; seed++ {
				base := fmt.Sprintf("procs=%d quantum=%d seed=%d", procs, quantum, seed)
				ref := runRandomScript(Config{Reference: true}, procs, quantum, seed)
				if len(ref) != procs*scriptOps {
					t.Fatalf("%s: trace has %d steps, want %d", base, len(ref), procs*scriptOps)
				}
				for name, cfg := range schedConfigs(Config{}) {
					got := runRandomScript(cfg, procs, quantum, seed)
					diffTraces(t, got, ref, base+"/"+name)
				}
			}
		}
	}
}

const scriptOps = 300

func runRandomScript(cfg Config, procs int, quantum, seed uint64) []step {
	cfg.Procs, cfg.Quantum = procs, quantum
	e := New(cfg)
	var trace []step
	var sleepers []*Proc
	active := procs // processors neither Done nor Blocked
	ws := make([]func(*Proc), procs)
	for i := 0; i < procs; i++ {
		r := NewRand(seed + uint64(i)*1_000_003)
		ws[i] = func(p *Proc) {
			for op := 0; op < scriptOps; op++ {
				trace = append(trace, step{p.ID(), p.Now()})
				switch k := r.Intn(10); {
				case k < 6:
					p.Elapse(uint64(r.Intn(50))) // includes 0: exercises ID tie-breaks
				case k < 8:
					if len(sleepers) > 0 {
						idx := r.Intn(len(sleepers))
						target := sleepers[idx]
						sleepers = append(sleepers[:idx], sleepers[idx+1:]...)
						active++
						p.Wake(target)
						p.Elapse(1)
					} else {
						p.Elapse(3)
					}
				default:
					if active > 1 {
						active--
						sleepers = append(sleepers, p)
						p.Block()
						// A waker removed us from sleepers and restored
						// the active count before calling Wake.
					} else {
						p.Elapse(7)
					}
				}
			}
			// Strand no one: the finishing processor wakes every sleeper.
			active--
			for len(sleepers) > 0 {
				target := sleepers[0]
				sleepers = sleepers[1:]
				active++
				p.Wake(target)
			}
		}
	}
	e.Run(ws)
	return trace
}

// TestSchedulerFinalClocksMatch double-checks the cheap invariants beyond
// the step trace: final clocks agree across both schedulers.
func TestSchedulerFinalClocksMatch(t *testing.T) {
	run := func(cfg Config) []uint64 {
		cfg.Procs, cfg.Quantum = 4, 50
		e := New(cfg)
		ws := make([]func(*Proc), 4)
		for i := range ws {
			r := NewRand(uint64(i) + 42)
			ws[i] = func(p *Proc) {
				for n := 0; n < 500; n++ {
					p.Elapse(uint64(1 + r.Intn(9)))
				}
			}
		}
		e.Run(ws)
		clocks := make([]uint64, 4)
		for i, p := range e.procs {
			clocks[i] = p.Now()
		}
		return clocks
	}
	ref := run(Config{Reference: true})
	for name, cfg := range schedConfigs(Config{}) {
		got := run(cfg)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s: proc %d final clock: got %d, reference %d", name, i, got[i], ref[i])
			}
		}
	}
}

// TestTwoPanickingWorkloadsFirstWins is the regression test for panic
// capture: with two panicking workloads the engine must deterministically
// re-raise the panic of whichever processor panics first in schedule
// order, on both schedulers. Proc 1 reaches its panic at cycle 5 while
// proc 0 is still run-ahead at cycle 10, so "B" wins.
func TestTwoPanickingWorkloadsFirstWins(t *testing.T) {
	for name, cfg := range schedConfigs(Config{Procs: 2}) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != "B" {
					t.Fatalf("recovered %v, want the first-scheduled panic \"B\"", r)
				}
			}()
			e := New(cfg)
			e.Run([]func(*Proc){
				func(p *Proc) { p.Elapse(10); panic("A") },
				func(p *Proc) { p.Elapse(5); panic("B") },
			})
		})
	}
}

// TestPanicBeforeFirstElapse covers a workload that panics without ever
// reaching a scheduling point.
func TestPanicBeforeFirstElapse(t *testing.T) {
	for name, cfg := range schedConfigs(Config{Procs: 2}) {
		func() {
			defer func() {
				if r := recover(); r != "immediately" {
					t.Fatalf("%s: recovered %v", name, r)
				}
			}()
			e := New(cfg)
			e.Run([]func(*Proc){
				func(p *Proc) { panic("immediately") },
				func(p *Proc) { p.Elapse(1) },
			})
		}()
	}
}

// TestSchedulerDeadlockAndLivelock pins the diagnostic halts on every
// scheduler.
func TestSchedulerDeadlockAndLivelock(t *testing.T) {
	for name, cfg := range schedConfigs(Config{}) {
		c := cfg
		c.Procs = 2
		wantHalt(t, name, "deadlock", func() {
			New(c).Run([]func(*Proc){func(p *Proc) { p.Block() }, func(p *Proc) { p.Block() }})
		})
		c.Procs, c.MaxSteps = 1, 100
		wantHalt(t, name, "budget", func() {
			New(c).Run([]func(*Proc){func(p *Proc) {
				for {
					p.Elapse(1)
				}
			}})
		})
	}
}

// TestLoneSpinnerTripsWatchdogOnFastPath: a single runnable processor
// never crosses the horizon, so the watchdog must still count (coarsely)
// on the inline path.
func TestLoneSpinnerTripsWatchdogOnFastPath(t *testing.T) {
	for name, cfg := range schedConfigs(Config{Procs: 1, MaxSteps: 100}) {
		wantHalt(t, name, "budget", func() {
			New(cfg).Run([]func(*Proc){func(p *Proc) {
				for {
					p.Elapse(1)
				}
			}})
		})
	}
}

// TestReadyHeapOrdering unit-tests the heap directly: entries carry
// their processor's clock, every parent precedes its children, pops come
// out in (clock, id) order, and replaceTop is a pop and a push in one.
func TestReadyHeapOrdering(t *testing.T) {
	e := New(Config{Procs: 7})
	clocks := []uint64{9, 3, 3, 12, 0, 7, 3}
	checkHeap := func() {
		t.Helper()
		for i, x := range e.ready {
			if x.now != x.p.now {
				t.Fatalf("slot %d holds clock %d for proc %d, which is at %d", i, x.now, x.p.id, x.p.now)
			}
			if i > 0 && x.before(e.ready[(i-1)/2]) {
				t.Fatalf("slot %d precedes its parent", i)
			}
		}
	}
	for i, p := range e.procs {
		p.now = clocks[i]
		e.heapPush(p)
		checkHeap()
	}
	// Proc 4 runs to clock 5: it takes the minimum's place in one sift.
	first := e.heapPop()
	first.now = 5
	if got := e.replaceTop(readyEntry{first.now, first}); first.id != 4 || got.id != 1 {
		t.Fatalf("heapPop, replaceTop = procs %d, %d; want 4, 1", first.id, got.id)
	}
	checkHeap()
	wantOrder := []int{2, 6, 4, 5, 0, 3} // by (clock, id)
	for _, want := range wantOrder {
		got := e.heapPop()
		if got == nil || got.id != want {
			t.Fatalf("heapPop = %v, want proc %d", got, want)
		}
		checkHeap()
	}
	if e.heapPop() != nil {
		t.Fatal("heap should be empty")
	}
}
