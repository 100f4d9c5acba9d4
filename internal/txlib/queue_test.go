package txlib

import (
	"testing"

	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/tm"
	"repro/internal/ustm"
)

func queueMachine(procs int) (*machine.Machine, *core.System) {
	p := machine.DefaultParams(procs)
	p.MemBytes = 1 << 22
	p.Quantum = 0
	p.MaxSteps = 20_000_000
	m := machine.New(p)
	cfg := ustm.DefaultConfig()
	cfg.OTableRows = 1 << 12
	return m, core.New(m, cfg, core.Policy{}, cm.KindExponential)
}

func TestQueueFIFOSingleThread(t *testing.T) {
	m, sys := queueMachine(1)
	a := NewArena(m, nil, 1<<12)
	d := Direct{M: m}
	q := NewQueue(d, a, 4)
	ex := sys.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			for i := uint64(1); i <= 3; i++ {
				q.Push(tx, i*10)
			}
		})
		if q.Len(d) != 3 {
			t.Errorf("Len = %d", q.Len(d))
		}
		var out []uint64
		ex.Atomic(func(tx tm.Tx) {
			out = out[:0] // idempotent across re-execution
			for i := 0; i < 3; i++ {
				out = append(out, q.Pop(tx))
			}
		})
		if len(out) != 3 || out[0] != 10 || out[1] != 20 || out[2] != 30 {
			t.Errorf("popped %v", out)
		}
	}})
}

func TestQueueTryOps(t *testing.T) {
	m, sys := queueMachine(1)
	a := NewArena(m, nil, 1<<12)
	q := NewQueue(Direct{M: m}, a, 2)
	ex := sys.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		ex.Atomic(func(tx tm.Tx) {
			if _, ok := q.TryPop(tx); ok {
				t.Error("TryPop on empty succeeded")
			}
			q.Push(tx, 1)
			q.Push(tx, 2)
			if v, ok := q.TryPop(tx); !ok || v != 1 {
				t.Errorf("TryPop = %d/%v", v, ok)
			}
		})
	}})
}

func TestQueueProducerConsumerBlocking(t *testing.T) {
	// A 2-slot queue between one producer and one consumer: both sides
	// must block (transactionally) and every element arrives in order.
	m, sys := queueMachine(2)
	a := NewArena(m, nil, 1<<12)
	q := NewQueue(Direct{M: m}, a, 2)
	const items = 40
	var received []uint64
	ex0, ex1 := sys.Exec(m.Proc(0)), sys.Exec(m.Proc(1))
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			for i := uint64(1); i <= items; i++ {
				v := i
				ex0.Atomic(func(tx tm.Tx) { q.Push(tx, v) })
			}
		},
		func(p *machine.Proc) {
			for i := 0; i < items; i++ {
				var v uint64
				ex1.Atomic(func(tx tm.Tx) { v = q.Pop(tx) })
				received = append(received, v)
				p.Elapse(uint64(p.Rand().Intn(200)))
			}
		},
	})
	if len(received) != items {
		t.Fatalf("received %d items", len(received))
	}
	for i, v := range received {
		if v != uint64(i+1) {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
	if m.Count.RetryWaits == 0 {
		t.Fatal("expected transactional waiting on the tiny queue")
	}
}

func TestQueueZeroCapacityPanics(t *testing.T) {
	m, _ := queueMachine(1)
	a := NewArena(m, nil, 1<<12)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQueue(Direct{M: m}, a, 0)
}
