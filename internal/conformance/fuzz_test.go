package conformance

import (
	"fmt"
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/tm"
	"repro/internal/tmtest"
)

// TestFuzzSerializabilityAllSystems drives every buildable SystemKind
// through tmtest.Recorder and the serializability checker across a seed
// matrix: 8 machine seeds × 2 thread counts (the sequential baseline is
// single-threaded by definition and runs at 1). The table iterates
// harness.AllSystems, so a newly added system is fuzzed automatically.
// Each run executes randomized read-modify-write transactions over a
// small shared address set — enough overlap to force real conflicts,
// failovers, and UFO kills — and then requires a serial order that
// explains every committed transaction's observations.
func TestFuzzSerializabilityAllSystems(t *testing.T) {
	const (
		seeds     = 8
		addrs     = 6
		txsPerThr = 10
	)
	for _, kind := range harness.AllSystems {
		threadCounts := []int{2, 3}
		if kind == harness.Sequential {
			threadCounts = []int{1}
		}
		for _, procs := range threadCounts {
			for seed := uint64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("%s/p%d/seed%d", kind, procs, seed), func(t *testing.T) {
					params := machine.DefaultParams(procs)
					params.MemBytes = 1 << 22
					params.MaxSteps = 30_000_000
					params.Seed = seed
					m := machine.New(params)
					rec := tmtest.NewRecorder(newSystem(string(kind), m))
					base := m.Mem.Sbrk(addrs * 64)
					var ws []func(*machine.Proc)
					for i := 0; i < procs; i++ {
						ex := rec.Exec(m.Proc(i))
						ws = append(ws, func(p *machine.Proc) {
							r := p.Rand()
							for n := 0; n < txsPerThr; n++ {
								ex.Atomic(func(tx tm.Tx) {
									for k, ops := 0, 1+r.Intn(3); k < ops; k++ {
										src := base + uint64(r.Intn(addrs))*64
										dst := base + uint64(r.Intn(addrs))*64
										tx.Store(dst, tx.Load(dst)+tx.Load(src)+1)
									}
								})
								p.Elapse(uint64(10 + r.Intn(150)))
							}
						})
					}
					m.Run(ws)
					if got, want := len(rec.History), procs*txsPerThr; got != want {
						t.Fatalf("recorded %d transactions, want %d", got, want)
					}
					// All fuzzed addresses start at zero; reads of base+i
					// must be explained from the zero image.
					if err := tmtest.CheckSerializable(rec.History, nil); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
