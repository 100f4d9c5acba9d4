package harness

import (
	"errors"
	"strings"
	"testing"
)

func testOptions() Options {
	opt := DefaultOptions()
	opt.Params.MemBytes = 1 << 24
	opt.OTableRows = 1 << 13
	return opt
}

func TestRunValidatesEveryWorkloadOnEverySystem(t *testing.T) {
	opt := testOptions()
	for _, f := range Benchmarks(ScaleSmall) {
		for _, sys := range append([]SystemKind{Sequential, GlobalLock}, Figure5Systems...) {
			threads := 2
			if sys == Sequential {
				threads = 1
			}
			r := Run(sys, f.New(), threads, opt)
			if r.Err != nil {
				t.Errorf("%s on %s: %v", f.Name, sys, r.Err)
			}
			if r.Cycles == 0 {
				t.Errorf("%s on %s: zero cycles", f.Name, sys)
			}
		}
	}
}

func TestSpeedupMath(t *testing.T) {
	r := Result{Cycles: 50}
	if got := r.Speedup(100); got != 2.0 {
		t.Fatalf("Speedup = %v", got)
	}
	if (Result{}).Speedup(100) != 0 {
		t.Fatal("zero-cycle speedup must be 0")
	}
	if (Result{Cycles: 50, Err: errors.New("lost update")}).Speedup(100) != 0 {
		t.Fatal("a failed cell's speedup must be 0")
	}
}

func TestSeqBaselineDeterministic(t *testing.T) {
	opt := testOptions()
	f := Benchmarks(ScaleSmall)[0]
	a := Run(Sequential, f.New(), 1, opt)
	b := Run(Sequential, f.New(), 1, opt)
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("baseline not deterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestPrintParams(t *testing.T) {
	var sb strings.Builder
	PrintParams(&sb, testOptions())
	if !strings.Contains(sb.String(), "NACK retry delay     20 cycles") {
		t.Fatalf("params output wrong:\n%s", sb.String())
	}
}

func TestBuildUnknownSystemPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(SystemKind("nope"), nil, testOptions())
}

func TestBenchmarksAndThreadCounts(t *testing.T) {
	if len(Benchmarks(ScaleSmall)) != 5 || len(Benchmarks(ScaleFull)) != 5 {
		t.Fatal("expected 5 benchmarks per scale")
	}
	if ThreadCounts(ScaleFull)[len(ThreadCounts(ScaleFull))-1] != 16 {
		t.Fatal("full scale must reach 16 threads")
	}
}
