package sim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSingleProcRuns(t *testing.T) {
	e := New(Config{Procs: 1})
	var ran bool
	e.Run([]func(*Proc){func(p *Proc) {
		p.Elapse(10)
		p.Elapse(5)
		ran = true
	}})
	if !ran {
		t.Fatal("workload did not run")
	}
	if got := e.Proc(0).Now(); got != 15 {
		t.Fatalf("proc clock = %d, want 15", got)
	}
	if got := e.Now(); got != 15 {
		t.Fatalf("engine Now = %d, want 15", got)
	}
}

func TestLowestClockRunsFirst(t *testing.T) {
	e := New(Config{Procs: 2})
	var order []int
	step := func(p *Proc, c uint64) {
		order = append(order, p.ID())
		p.Elapse(c)
	}
	e.Run([]func(*Proc){
		func(p *Proc) { step(p, 10); step(p, 10); step(p, 10) }, // runs at 0,10,20
		func(p *Proc) { step(p, 5); step(p, 5); step(p, 25) },   // runs at 0,5,10
	})
	// Expected interleaving by (time, id): p0@0, p1@0, p1@5, p0@10, p1@10, p0@20.
	want := []int{0, 1, 1, 0, 1, 0}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		e := New(Config{Procs: 4})
		var order []int
		mk := func(id int) func(*Proc) {
			r := NewRand(uint64(id + 1))
			return func(p *Proc) {
				for i := 0; i < 50; i++ {
					order = append(order, p.ID())
					p.Elapse(uint64(1 + r.Intn(20)))
				}
			}
		}
		e.Run([]func(*Proc){mk(0), mk(1), mk(2), mk(3)})
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBlockAndWake(t *testing.T) {
	e := New(Config{Procs: 2})
	var wokeAt uint64
	sleeper := e.Proc(0)
	e.Run([]func(*Proc){
		func(p *Proc) {
			p.Elapse(1)
			p.Block()
			wokeAt = p.Now()
		},
		func(p *Proc) {
			p.Elapse(100)
			p.Wake(sleeper)
			p.Elapse(1)
		},
	})
	if wokeAt != 100 {
		t.Fatalf("sleeper resumed at cycle %d, want 100", wokeAt)
	}
}

func TestWakeNonBlockedIsNoop(t *testing.T) {
	e := New(Config{Procs: 2})
	target := e.Proc(0)
	e.Run([]func(*Proc){
		func(p *Proc) { p.Elapse(3) },
		func(p *Proc) {
			p.Wake(target) // target is ready, not blocked
			p.Elapse(1)
		},
	})
	if target.Now() != 3 {
		t.Fatalf("target clock = %d, want 3", target.Now())
	}
}

// wantHalt runs f under Catch and fails unless it halted with kind.
func wantHalt(t *testing.T, label, kind string, f func()) *Halt {
	t.Helper()
	h := Catch(f)
	if h == nil || h.Kind != kind {
		t.Fatalf("%s: Catch = %v, want a %q halt", label, h, kind)
	}
	return h
}

func TestDeadlockPanics(t *testing.T) {
	for name, cfg := range schedConfigs(Config{Procs: 2}) {
		wantHalt(t, name, "deadlock", func() {
			New(cfg).Run([]func(*Proc){
				func(p *Proc) { p.Block() },
				func(p *Proc) { p.Block() },
			})
		})
	}
}

func TestLivelockWatchdog(t *testing.T) {
	for name, cfg := range schedConfigs(Config{Procs: 2, MaxSteps: 1000}) {
		wantHalt(t, name, "budget", func() {
			New(cfg).Run([]func(*Proc){
				func(p *Proc) {
					for {
						p.Elapse(1)
					}
				},
				func(p *Proc) {
					for {
						p.Elapse(1)
					}
				},
			})
		})
	}
}

// TestCatch: nil when f returns, and a "panic" halt reading "panic: v"
// for a panic that is not a Halt.
func TestCatch(t *testing.T) {
	if h := Catch(func() {}); h != nil {
		t.Fatalf("Catch of a function that returned = %v", h)
	}
	if h := wantHalt(t, "workload panic", "panic", func() {
		New(Config{Procs: 1}).Run([]func(*Proc){func(*Proc) { panic("workload exploded") }})
	}); h.Error() != "panic: workload exploded" {
		t.Fatalf("Error() = %q", h.Error())
	}
}

func TestQuantumInterrupts(t *testing.T) {
	e := New(Config{Procs: 1, Quantum: 100})
	var fired int32
	e.Run([]func(*Proc){func(p *Proc) {
		p.OnInterrupt(func() { atomic.AddInt32(&fired, 1) })
		for i := 0; i < 35; i++ {
			p.Elapse(10) // 350 cycles total: crosses 100, 200, 300
		}
	}})
	if fired != 3 {
		t.Fatalf("interrupts fired %d times, want 3", fired)
	}
}

func TestQuantumCrossingMultipleBoundariesInOneElapse(t *testing.T) {
	e := New(Config{Procs: 1, Quantum: 10})
	var fired int
	e.Run([]func(*Proc){func(p *Proc) {
		p.OnInterrupt(func() { fired++ })
		p.Elapse(35) // crosses 10, 20, 30
	}})
	if fired != 3 {
		t.Fatalf("interrupts fired %d times, want 3", fired)
	}
}

func TestZeroQuantumDisablesInterrupts(t *testing.T) {
	e := New(Config{Procs: 1})
	var fired int
	e.Run([]func(*Proc){func(p *Proc) {
		p.OnInterrupt(func() { fired++ })
		p.Elapse(1_000_000)
	}})
	if fired != 0 {
		t.Fatalf("interrupts fired %d times, want 0", fired)
	}
}

func TestEngineStepsAdvance(t *testing.T) {
	e := New(Config{Procs: 2})
	e.Run([]func(*Proc){
		func(p *Proc) { p.Elapse(1); p.Elapse(1) },
		func(p *Proc) { p.Elapse(1); p.Elapse(1) },
	})
	if e.steps == 0 {
		t.Fatal("engine recorded no steps")
	}
}

func TestProcsAccessors(t *testing.T) {
	e := New(Config{Procs: 3})
	if len(e.procs) != 3 {
		t.Fatalf("%d procs, want 3", len(e.procs))
	}
	for i := 0; i < 3; i++ {
		if e.Proc(i).ID() != i {
			t.Fatalf("Proc(%d).ID() = %d", i, e.Proc(i).ID())
		}
	}
}

func TestNewPanicsOnZeroProcs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Procs=0")
		}
	}()
	New(Config{})
}

func TestWorkloadPanicPropagatesToRun(t *testing.T) {
	defer func() {
		if r := recover(); r != "workload exploded" {
			t.Fatalf("recovered %v", r)
		}
	}()
	e := New(Config{Procs: 2})
	e.Run([]func(*Proc){
		func(p *Proc) { p.Elapse(5); panic("workload exploded") },
		func(p *Proc) { p.Elapse(100) },
	})
}

func TestRunPanicsOnWorkloadCountMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Procs: 2}).Run([]func(*Proc){func(*Proc) {}})
}

// TestNotesAppearInDeadlockDump: a dump shows each processor's last
// note, a plain label as set and a label with its integer as label=n,
// the text a formatted note once was.
func TestNotesAppearInDeadlockDump(t *testing.T) {
	for name, cfg := range schedConfigs(Config{Procs: 3}) {
		h := wantHalt(t, name, "deadlock", func() {
			New(cfg).Run([]func(*Proc){func(p *Proc) {
				p.SetNote("waiting-for-godot")
				p.Block()
			}, func(p *Proc) {
				p.SetNoteN("barrier spin gen", 3)
				p.Block()
			}, func(p *Proc) {
				p.SetNoteN("barrier collect gen", 2)
				p.SetNote("genome phase2")
				p.Block()
			}})
		})
		for _, want := range []string{"(waiting-for-godot)\n", "(barrier spin gen=3)\n", "(genome phase2)\n"} {
			if !strings.Contains(h.Error(), want) {
				t.Fatalf("%s: dump missing %q: %v", name, want, h)
			}
		}
	}
}

// TestSetNoteAllocatesNothing: a wait loop may set its note on every
// iteration, so neither form may allocate.
func TestSetNoteAllocatesNothing(t *testing.T) {
	p := New(Config{Procs: 1}).Proc(0)
	gen := uint64(1000)
	if n := testing.AllocsPerRun(100, func() {
		gen++
		p.SetNoteN("barrier spin gen", gen)
		p.SetNote("genome phase1")
	}); n != 0 {
		t.Fatalf("setting a note allocated %v times, want 0", n)
	}
}

func TestStateStrings(t *testing.T) {
	if Ready.String() != "ready" || Blocked.String() != "blocked" || Done.String() != "done" {
		t.Fatal("state names wrong")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state must format")
	}
}

func TestManyProcsFairProgress(t *testing.T) {
	const procs = 16
	e := New(Config{Procs: procs})
	finish := make([]uint64, procs)
	var ws []func(*Proc)
	for i := 0; i < procs; i++ {
		tid := i
		ws = append(ws, func(p *Proc) {
			for n := 0; n < 100; n++ {
				p.Elapse(10)
			}
			finish[tid] = p.Now()
		})
	}
	e.Run(ws)
	for i, f := range finish {
		if f != 1000 {
			t.Fatalf("proc %d finished at %d, want 1000 (identical work)", i, f)
		}
	}
}

// TestLockstepBudgetHaltMatchesReference: when every Elapse hands the
// token on, the fast scheduler counts each step where the reference
// does, so running out of budget ends both in the same Halt — kind,
// dump text and step count — at 2, 16 and 256 processors.
func TestLockstepBudgetHaltMatchesReference(t *testing.T) {
	const maxSteps = 3000
	for _, procs := range []int{2, 16, 256} {
		var ref string
		for _, name := range []string{"reference", "fast"} {
			e := New(schedConfigs(Config{Procs: procs, MaxSteps: maxSteps})[name])
			ws := make([]func(*Proc), procs)
			for i := range ws {
				ws[i] = func(p *Proc) {
					for {
						p.Elapse(1)
					}
				}
			}
			label := fmt.Sprintf("procs=%d/%s", procs, name)
			h := wantHalt(t, label, "budget", func() { e.Run(ws) })
			if e.steps != maxSteps+1 {
				t.Fatalf("%s: halted after %d steps, want %d", label, e.steps, maxSteps+1)
			}
			if ref == "" {
				ref = h.Error()
			} else if h.Error() != ref {
				t.Fatalf("%s: halt reads\n%s\nreference\n%s", label, h.Error(), ref)
			}
		}
	}
}

// TestStoppedElapseDoesNotSwitch: a deferred call that reaches a
// crossing Elapse while its processor is being torn down gets "sim: run
// stopped" back at once and passes the token to no one, under both
// schedulers: the other suspended processor unwinds only when Run's
// caller reaches it.
func TestStoppedElapseDoesNotSwitch(t *testing.T) {
	for name, cfg := range schedConfigs(Config{Procs: 3}) {
		t.Run(name, func(t *testing.T) {
			var log []string
			h := Catch(func() {
				New(cfg).Run([]func(*Proc){
					func(p *Proc) {
						defer func() { log = append(log, "0 unwound") }()
						defer func() {
							defer func() { log = append(log, fmt.Sprint("0 ", recover())) }()
							p.Elapse(1000) // proc 1 waits at 5: this crosses
							log = append(log, "0 resumed after stop")
						}()
						p.Elapse(100)
					},
					func(p *Proc) {
						defer func() { log = append(log, "1 unwound") }()
						p.Elapse(5)
						p.Elapse(5)
					},
					func(p *Proc) { p.Elapse(3); panic("first") },
				})
			})
			if h == nil || h.Error() != "panic: first" {
				t.Fatalf("Run ended with %v, want panic: first", h)
			}
			if got, want := strings.Join(log, ", "), "0 sim: run stopped, 0 unwound, 1 unwound"; got != want {
				t.Fatalf("teardown ran %q, want %q", got, want)
			}
		})
	}
}
