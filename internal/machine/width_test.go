package machine_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
)

// TestScaleMixPinnedAcrossRecordWidths pins whole-run results on machines
// whose directory records are two and three words wide per mask — 70 and
// 130 processors, where no other pinned output reaches — to the values
// the 256-processor-wide records of the commit before this test
// produced: the record's width is host-side layout and must never show
// in a simulated number.
func TestScaleMixPinnedAcrossRecordWidths(t *testing.T) {
	f := harness.ScaleBenchmark(harness.ScaleSmall)
	for _, want := range []struct {
		procs     int
		sys       harness.SystemKind
		cycles    uint64
		conflicts uint64 // HWAbortsByReason[AbortConflict]; every other reason is zero
	}{
		{70, harness.UFOHybrid, 26814, 102},
		{70, harness.TL2, 29319, 0},
		{130, harness.UFOHybrid, 109428, 215},
		{130, harness.TL2, 45855, 0},
	} {
		res := harness.Run(want.sys, f.New(), want.procs, harness.DefaultOptions())
		if res.Err != nil {
			t.Fatalf("%s at %d processors: %v", want.sys, want.procs, res.Err)
		}
		var aborts [machine.NumAbortReasons]uint64
		aborts[machine.AbortConflict] = want.conflicts
		if res.Cycles != want.cycles || res.Machine.HWAbortsByReason != aborts {
			t.Errorf("%s at %d processors: %d cycles, aborts %v; pinned %d cycles, aborts %v",
				want.sys, want.procs, res.Cycles, res.Machine.HWAbortsByReason, want.cycles, aborts)
		}
	}
}
