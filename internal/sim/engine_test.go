package sim

import (
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

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := New(Config{Procs: 2})
	e.Run([]func(*Proc){
		func(p *Proc) { p.Block() },
		func(p *Proc) { p.Block() },
	})
}

func TestLivelockWatchdog(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected watchdog panic")
		}
	}()
	e := New(Config{Procs: 2, MaxSteps: 1000})
	e.Run([]func(*Proc){
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

func TestNotesAppearInDeadlockDump(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "waiting-for-godot") {
			t.Fatalf("dump missing note: %v", r)
		}
	}()
	e := New(Config{Procs: 1})
	e.Run([]func(*Proc){func(p *Proc) {
		p.SetNote("waiting-for-godot")
		p.Block()
	}})
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
