package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
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
