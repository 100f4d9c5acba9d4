package harness

import (
	"bytes"
	"reflect"
	"testing"
)

// TestScaleSweepSchedulerBitIdentical runs the small scaling study under
// the run-ahead scheduler and the reference scheduler and requires
// bit-identical results: same sequential baseline, same per-cell cycle
// counts, stats, and machine counters, same rendered table. This pins the
// scale experiment — the widest machines the repo simulates — to the
// executable specification (DESIGN.md §12).
func TestScaleSweepSchedulerBitIdentical(t *testing.T) {
	run := func(reference bool) (Figure5Data, []byte) {
		t.Helper()
		opt := testOptions()
		opt.Params.ReferenceScheduler = reference
		d, err := Serial().ScaleSweep(opt, ScaleSmall)
		if err != nil {
			t.Fatalf("ScaleSweep(reference=%v): %v", reference, err)
		}
		var buf bytes.Buffer
		PrintScaleSweep(&buf, d, ScaleSmall)
		return d, buf.Bytes()
	}

	ref, refOut := run(true)
	if ref.SeqCycles == 0 {
		t.Fatal("sequential baseline ran zero cycles")
	}
	got, gotOut := run(false)
	if !bytes.Equal(refOut, gotOut) {
		t.Errorf("rendered sweep differs from the reference scheduler:\n--- reference\n%s--- fast\n%s", refOut, gotOut)
	}
	if got.SeqCycles != ref.SeqCycles {
		t.Errorf("seq baseline %d cycles, reference %d", got.SeqCycles, ref.SeqCycles)
	}
	for _, sys := range ScaleSystems {
		for _, p := range ScaleProcCounts(ScaleSmall) {
			r, w := ref.Cells[sys][p], got.Cells[sys][p]
			if w.Cycles != r.Cycles || w.Stats != r.Stats || !reflect.DeepEqual(w.Machine, r.Machine) {
				t.Errorf("%s p=%d diverged: cycles %d vs %d, stats %+v vs %+v",
					sys, p, w.Cycles, r.Cycles, w.Stats, r.Stats)
			}
		}
	}
}

// TestScaleSweepSpeedupMonotoneSmall pins the point of the scaling
// study: with compute-dominated work the simulated speedup must grow
// with the processor count at small scale (the full-scale 256-processor
// cell is allowed a contention knee, exercised by the CI smoke job).
func TestScaleSweepSpeedupMonotoneSmall(t *testing.T) {
	d, err := Serial().ScaleSweep(testOptions(), ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	procs := ScaleProcCounts(ScaleSmall)
	for _, sys := range ScaleSystems {
		prev := 1.0
		for _, p := range procs {
			s := d.Cells[sys][p].Speedup(d.SeqCycles)
			if s <= prev {
				t.Errorf("%s: speedup at p=%d is %.2f, not above %.2f at the previous point", sys, p, s, prev)
			}
			prev = s
		}
	}
}
