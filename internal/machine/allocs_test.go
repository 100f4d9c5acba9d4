package machine

import "testing"

// TestRunAllocsPerProc pins what one more simulated processor costs a
// cell in heap allocations: New plus a Run of empty workloads. Every cell
// of every sweep pays it, so it is the deterministic part of the
// benchmark's allocs_per_op. At the time of writing a machine costs 16
// allocations and each processor 16 more — 4 in New (the L1 and its
// interrupt hook), 12 in Run (the coroutine).
func TestRunAllocsPerProc(t *testing.T) {
	const perMachine, perProc = 24, 18 // ceilings, a little above today's 16 and 16
	for _, procs := range []int{1, 16, 64} {
		params := DefaultParams(procs)
		ws := make([]func(*Proc), procs)
		for i := range ws {
			ws[i] = func(*Proc) {}
		}
		got := testing.AllocsPerRun(10, func() { New(params).Run(ws) })
		if ceiling := float64(perMachine + perProc*procs); got > ceiling {
			t.Errorf("%d procs: New+Run made %.0f allocations, ceiling %.0f (%d + %d per processor)",
				procs, got, ceiling, perMachine, perProc)
		}
	}
}
