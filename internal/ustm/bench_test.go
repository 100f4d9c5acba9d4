package ustm

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/tm"
)

// BenchmarkSWTxRoundTrip measures a one-store software transaction with
// strong atomicity (barrier + UFO install/clear + logging).
func BenchmarkSWTxRoundTrip(b *testing.B) {
	m := testMachine(1)
	s := testSTM(m, true)
	ex := s.Exec(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ex.Atomic(func(tx tm.Tx) { tx.Store(0, uint64(i)) })
		}
	}})
}

// BenchmarkWriteBarrierOwned measures the barrier fast path (entry
// already owned with write permission).
func BenchmarkWriteBarrierOwned(b *testing.B) {
	m := testMachine(1)
	s := testSTM(m, true)
	th := s.Thread(m.Proc(0))
	m.Run([]func(*machine.Proc){func(p *machine.Proc) {
		th.BeginSW(m.NextAge())
		th.barrier(0, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.barrier(0, true)
		}
		b.StopTimer()
		th.EndSW(false)
	}})
}
