//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestWokenEarlierProcRunsBeforeWakersNextInstruction: the running
// processor wakes a sleeper whose (clock, id) then precedes its own; the
// sleeper must run at the waker's very next Elapse, before the waker's
// following instruction, under both schedulers.
func TestWokenEarlierProcRunsBeforeWakersNextInstruction(t *testing.T) {
	for name, cfg := range schedConfigs(Config{Procs: 2}) {
		t.Run(name, func(t *testing.T) {
			e := New(cfg)
			sleeper := e.Proc(0)
			var order []string
			e.Run([]func(*Proc){
				func(p *Proc) {
					p.Block()
					order = append(order, fmt.Sprintf("sleeper@%d", p.Now()))
				},
				func(p *Proc) {
					p.Elapse(50) // proc 0 is blocked: run ahead to 50
					p.Wake(sleeper)
					order = append(order, "woke") // no scheduling point yet: still the waker
					p.Elapse(0)                   // tie at 50: id 0 precedes id 1
					order = append(order, "waker-next")
				},
			})
			if got, want := strings.Join(order, " "), "woke sleeper@50 waker-next"; got != want {
				t.Fatalf("order = %q, want %q", got, want)
			}
		})
	}
}

// TestSecondRunOnSameEngine: once Run has returned, the engine runs a
// fresh set of workloads with every processor ready at the clock the
// first run left it.
func TestSecondRunOnSameEngine(t *testing.T) {
	for name, cfg := range schedConfigs(Config{Procs: 3, Quantum: 10}) {
		t.Run(name, func(t *testing.T) {
			e := New(cfg)
			var fired int
			e.Proc(0).OnInterrupt(func() { fired++ })
			body := func(c uint64) func(*Proc) {
				return func(p *Proc) { p.Elapse(c); p.Elapse(c) }
			}
			e.Run([]func(*Proc){body(7), body(2), body(3)})
			first := e.steps
			var order []int
			e.Run([]func(*Proc){
				func(p *Proc) { p.Elapse(1); order = append(order, 0) },  // 14 -> 15
				func(p *Proc) { p.Elapse(1); order = append(order, 1) },  // 4 -> 5
				func(p *Proc) { p.Elapse(20); order = append(order, 2) }, // 6 -> 26
			})
			if fmt.Sprint(order) != "[1 0 2]" {
				t.Fatalf("second run order = %v, want [1 0 2]", order)
			}
			if e.Proc(0).Now() != 15 || e.Proc(1).Now() != 5 || e.Proc(2).Now() != 26 {
				t.Fatalf("clocks did not carry over: %d %d %d", e.Proc(0).Now(), e.Proc(1).Now(), e.Proc(2).Now())
			}
			if fired != 1 {
				t.Fatalf("proc 0 crossed one quantum boundary (10) over both runs, hook fired %d times", fired)
			}
			if e.steps <= first {
				t.Fatalf("second run counted no steps: %d then %d", first, e.steps)
			}
		})
	}
}

// TestHandoffStorm256 has 256 processors elapse one cycle at a time, so
// every Elapse hands the token on. Run under -race it exercises the
// happens-before edges of the coroutine switches: every processor bumps
// the same unsynchronised counters.
func TestHandoffStorm256(t *testing.T) {
	const procs, rounds = 256, 40
	for name, cfg := range schedConfigs(Config{Procs: procs}) {
		t.Run(name, func(t *testing.T) {
			e := New(cfg)
			var total int
			last := -1
			ws := make([]func(*Proc), procs)
			for i := range ws {
				ws[i] = func(p *Proc) {
					for r := 0; r < rounds; r++ {
						if want := (last + 1) % procs; p.ID() != want {
							t.Errorf("round %d: proc %d ran, want round-robin successor %d", r, p.ID(), want)
						}
						last = p.ID()
						total++
						p.Elapse(1)
					}
				}
			}
			e.Run(ws)
			if total != procs*rounds {
				t.Fatalf("total = %d, want %d", total, procs*rounds)
			}
		})
	}
}

// TestFailedRunLeavesNoGoroutines: after deadlocked, livelocked and
// panicking Runs the goroutine count is back where it started, under both
// schedulers — the suspended processors were unwound, not abandoned. Each
// case runs ten times on this goroutine, so a leak shows as twenty or
// more extra goroutines while an earlier test's goroutine still exiting
// can only lower the count by one.
func TestFailedRunLeavesNoGoroutines(t *testing.T) {
	// The three ways a run ends abnormally. In each, other processors are
	// suspended mid-workload when Run gives up.
	failedRuns := map[string]struct {
		maxSteps uint64
		want     string
		ws       []func(*Proc)
	}{
		"deadlock": {0, "deadlock", []func(*Proc){
			func(p *Proc) { p.Elapse(3); p.Block() },
			func(p *Proc) { p.Block() },
			func(p *Proc) { p.Elapse(1) },
		}},
		"livelock": {500, "step budget exhausted", []func(*Proc){
			func(p *Proc) {
				for {
					p.Elapse(1)
				}
			},
			func(p *Proc) {
				for {
					p.Elapse(2)
				}
			},
			func(p *Proc) { p.Block() },
		}},
		"panic": {0, "boom", []func(*Proc){
			func(p *Proc) { p.Elapse(10); p.Elapse(10) },
			func(p *Proc) { p.Elapse(5); panic("boom") },
			func(p *Proc) { p.Block() },
		}},
	}
	for kind, f := range failedRuns {
		for name, cfg := range schedConfigs(Config{Procs: len(f.ws), MaxSteps: f.maxSteps}) {
			before := runtime.NumGoroutine()
			for i := 0; i < 10; i++ {
				func() {
					defer func() {
						if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), f.want) {
							t.Fatalf("%s/%s: recovered %v, want a panic containing %q", kind, name, r, f.want)
						}
					}()
					New(cfg).Run(f.ws)
				}()
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%s/%s: %d goroutines before ten failed runs, %d after", kind, name, before, after)
			}
		}
	}
	// Wide runs whose goroutines have wandered over many slots before the
	// failure: the fast scheduler must report what the reference reports
	// (a budget halt's dump depends on where each scheduler counts steps,
	// so only its kind), unwind every workload once and leak nothing.
	for _, procs := range []int{16, 64} {
		for _, kind := range []string{"panic", "deadlock", "budget"} {
			for seed := uint64(1); seed <= 3; seed++ {
				label := fmt.Sprintf("procs=%d %s seed=%d", procs, kind, seed)
				ref := ""
				for _, name := range []string{"reference", "fast"} {
					cfg := schedConfigs(Config{Procs: procs, MaxSteps: 20_000})[name]
					before := runtime.NumGoroutine()
					unwound := make([]int, procs)
					h := Catch(func() { New(cfg).Run(failingScript(procs, seed, kind, unwound)) })
					got := fmt.Sprint(h)
					if kind == "budget" && h != nil {
						got = h.Kind
					}
					if ref == "" {
						ref = got
					}
					if !strings.Contains(got, map[string]string{"panic": "panic: proc", "deadlock": "sim: deadlock", "budget": "budget"}[kind]) || got != ref {
						t.Fatalf("%s/%s: Run ended with %q; reference %q", label, name, got, ref)
					}
					for id, n := range unwound {
						if n != 1 {
							t.Fatalf("%s/%s: proc %d's deferred call ran %d times", label, name, id, n)
						}
					}
					if after := runtime.NumGoroutine(); after > before {
						t.Errorf("%s/%s: %d goroutines before the run, %d after", label, name, before, after)
					}
				}
			}
		}
	}
}

// failingScript returns seeded Elapse/Block/Wake workloads, like
// runRandomScript's, that hand off many times and then end the run:
//   - "panic": three processors panic at random ops, the first in
//     schedule order being the one Run must report;
//   - "deadlock": each processor blocks for good after its last op;
//   - "budget": no processor ever finishes;
//   - "goexit": one processor calls runtime.Goexit at a random op.
//
// Every workload counts its deferred call in unwound.
func failingScript(procs int, seed uint64, kind string, unwound []int) []func(*Proc) {
	var sleepers []*Proc
	active := procs
	failAt := make([]int, procs)
	for i := range failAt {
		failAt[i] = -1
	}
	r := NewRand(seed)
	for n := 0; n < 3 && (kind == "panic" || n == 0 && kind == "goexit"); n++ {
		failAt[r.Intn(procs)] = 100 + r.Intn(200)
	}
	ws := make([]func(*Proc), procs)
	for i := range ws {
		r := NewRand(seed + uint64(i)*1_000_003)
		ws[i] = func(p *Proc) {
			defer func() { unwound[p.ID()]++ }()
			for op := 0; kind == "budget" || op < scriptOps; op++ {
				if op == failAt[p.ID()] && kind == "goexit" {
					runtime.Goexit()
				} else if op == failAt[p.ID()] {
					panic(fmt.Sprintf("proc %d op %d at cycle %d", p.ID(), op, p.Now()))
				}
				switch k := r.Intn(10); {
				case k < 6:
					p.Elapse(uint64(r.Intn(50)))
				case k < 8 && len(sleepers) > 0:
					idx := r.Intn(len(sleepers))
					target := sleepers[idx]
					sleepers = append(sleepers[:idx], sleepers[idx+1:]...)
					active++
					p.Wake(target)
					p.Elapse(1)
				case k >= 8 && active > 1:
					active--
					sleepers = append(sleepers, p)
					p.Block()
				default:
					p.Elapse(7)
				}
			}
			active--
			if kind == "deadlock" {
				p.Block()
			}
			for len(sleepers) > 0 {
				active++
				p.Wake(sleepers[0])
				sleepers = sleepers[1:]
			}
		}
	}
	return ws
}

// TestGoexitInWorkloadEndsRunsCaller: a workload that calls
// runtime.Goexit at a random step ends the goroutine that called Run, as
// it would have had the workload run on that goroutine, after every other
// workload has unwound once; no goroutine survives.
func TestGoexitInWorkloadEndsRunsCaller(t *testing.T) {
	for _, procs := range []int{2, 5, 16} {
		for seed := uint64(1); seed <= 4; seed++ {
			for name, cfg := range schedConfigs(Config{Procs: procs}) {
				label := fmt.Sprintf("procs=%d seed=%d/%s", procs, seed, name)
				before := runtime.NumGoroutine()
				unwound := make([]int, procs)
				ended := make(chan string)
				go func() {
					returned := false
					defer func() {
						if r := recover(); r != nil {
							ended <- fmt.Sprint("panicked: ", r)
						} else if returned {
							ended <- "returned"
						} else {
							ended <- "exited"
						}
					}()
					New(cfg).Run(failingScript(procs, seed, "goexit", unwound))
					returned = true
				}()
				if got := <-ended; got != "exited" {
					t.Fatalf("%s: Run's caller %s, want it to exit", label, got)
				}
				for id, n := range unwound {
					if n != 1 {
						t.Fatalf("%s: proc %d's deferred call ran %d times", label, id, n)
					}
				}
				for i := 0; runtime.NumGoroutine() > before; i++ {
					if i == 1000 {
						t.Fatalf("%s: %d goroutines before the run, %d after", label, before, runtime.NumGoroutine())
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
	}
}

// TestPullSlotsSwitchFromAnyGoroutine pins the runtime behaviour the
// engine's handoff rests on: a goroutine that calls an iter.Pull slot's
// next, or the yield its body received, parks in that slot and resumes
// whichever goroutine is parked there, whoever's slot it is, as long as
// the calls on each slot alternate next, yield, next. When a slot's body
// returns, the goroutine parked in it resumes with false.
func TestPullSlotsSwitchFromAnyGoroutine(t *testing.T) {
	var (
		log       []string
		nexts     [3]func() (struct{}, bool)
		yields    [3]func(struct{}) bool
		yieldNext [3]bool
	)
	// sw switches the running goroutine into slot s and logs name, with
	// "!" if it was resumed by a slot's end, once it runs again.
	sw := func(name string, s int) {
		ok := false
		if yieldNext[s] = !yieldNext[s]; yieldNext[s] {
			_, ok = nexts[s]()
		} else {
			ok = yields[s](struct{}{})
		}
		if !ok {
			name += "!"
		}
		log = append(log, name)
	}
	// Slot i's body logs its name, then switches into the slots moves[i]
	// names, one after another, and returns.
	const a, b, c = 0, 1, 2
	names := []string{"A", "B", "C"}
	moves := [][]int{{b, c}, {c, a}, {a, b}}
	for i := range nexts {
		nexts[i], _ = iter.Pull(func(yield func(struct{}) bool) {
			yields[i] = yield
			log = append(log, names[i])
			for _, s := range moves[i] {
				sw(names[i], s)
			}
		})
	}
	for _, s := range []int{a, c, c} {
		sw("main", s)
	}
	// main starts A, which starts B, which starts C; C yields into A, where
	// main is parked, and so on; the last three are each woken by the end
	// of the slot they were parked in.
	if got, want := strings.Join(log, " "), "A B C main B C A main A B! C! main!"; got != want {
		t.Fatalf("transfer order %q, want %q", got, want)
	}
}

// TestStoppedWorkloadUnwinds pins how a suspended workload is torn down
// when another processor's panic ends the run: its deferred calls run, a
// scheduling point reached from one of them does not suspend again, and
// nothing it raises on the way out displaces the panic Run reports.
func TestStoppedWorkloadUnwinds(t *testing.T) {
	for name, cfg := range schedConfigs(Config{Procs: 2}) {
		t.Run(name, func(t *testing.T) {
			var unwound []string
			defer func() {
				if r := recover(); r != "first" {
					t.Fatalf("recovered %v, want \"first\"", r)
				}
				if got := strings.Join(unwound, " "); got != "inner outer" {
					t.Fatalf("deferred calls ran as %q, want \"inner outer\"", got)
				}
			}()
			New(cfg).Run([]func(*Proc){
				func(p *Proc) {
					defer func() {
						unwound = append(unwound, "outer")
						panic("raised while unwinding")
					}()
					defer func() {
						unwound = append(unwound, "inner")
						p.Block() // must re-raise, not suspend
						unwound = append(unwound, "resumed after stop")
					}()
					p.Elapse(100)
					unwound = append(unwound, "resumed after stop")
				},
				func(p *Proc) { p.Elapse(5); panic("first") },
			})
		})
	}
}
