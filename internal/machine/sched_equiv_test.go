package machine

import (
	"testing"

	"repro/internal/sim"
)

// TestReferenceSchedulerBitIdentical runs a contended transactional
// workload under the run-ahead fast path and the reference scheduler
// (Params.ReferenceScheduler, the executable specification of DESIGN.md
// §12) and requires bit-identical simulated results: final cycle count,
// per-proc clocks, event counters, and committed memory. This is the
// machine-level differential test pinning the production scheduler to
// the specification. The workload draws from one RNG all processors
// share, so the draw order is itself part of what must match.
func TestReferenceSchedulerBitIdentical(t *testing.T) {
	const procs = 4

	run := func(params Params) *Machine {
		params.Quantum = 500
		m := New(params)
		r := sim.NewRand(params.Seed)
		ws := make([]func(*Proc), procs)
		for i := 0; i < procs; i++ {
			ws[i] = func(p *Proc) {
				for iter := 0; iter < 40; iter++ {
					addr := uint64(r.Intn(16)) * 64 // 16 hot lines
					p.BeginHW(p.Machine().NextAge(), true)
					_, out := p.TxRead(addr)
					if out.Kind == OK {
						out = p.TxWrite(addr, uint64(iter+1))
					}
					if p.HW() != nil {
						p.CommitHW()
					}
					p.Elapse(uint64(r.Intn(30)))
				}
			}
		}
		m.Run(ws)
		return m
	}

	refParams := testParams(procs)
	refParams.ReferenceScheduler = true
	ref := run(refParams)
	t.Run("fast", func(t *testing.T) {
		got := run(testParams(procs))
		if got.Cycles() != ref.Cycles() {
			t.Errorf("total cycles: fast %d, reference %d", got.Cycles(), ref.Cycles())
		}
		for i := 0; i < procs; i++ {
			gn, rn := got.Proc(i).Now(), ref.Proc(i).Now()
			if gn != rn {
				t.Errorf("proc %d clock: fast %d, reference %d", i, gn, rn)
			}
		}
		if got.Count != ref.Count {
			t.Errorf("counters diverge:\nfast      %+v\nreference %+v", got.Count, ref.Count)
		}
		for line := uint64(0); line < 16; line++ {
			addr := line * 64
			gv, rv := got.Mem.Read64(addr), ref.Mem.Read64(addr)
			if gv != rv {
				t.Errorf("mem[%#x]: fast %d, reference %d", addr, gv, rv)
			}
		}
	})
}

// TestProcsLimit pins the Params validation added with the
// 256-processor directory: a machine beyond cache.MaxProcs must be
// rejected.
func TestProcsLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("257 procs: expected panic")
		}
	}()
	New(testParams(257))
}
