package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestFigure5GoldenDefaultPolicy pins the default contention-management
// policy to the pre-refactor behavior: the small-scale Figure 5 sweep
// under CappedExponential must reproduce the golden capture byte for
// byte — same simulated cycle counts, same speedups, same stats. Any
// change to backoff timing, RNG draw order, or retry structure shows up
// here first. Regenerate (deliberately!) with `go test -run
// TestFigure5Golden -update ./internal/harness/`.
func TestFigure5GoldenDefaultPolicy(t *testing.T) {
	opt := DefaultOptions()
	opt.Params.Seed = 1 // the tmsim -seed default the golden was captured with
	data, err := Parallel(0).Figure5(opt, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintFigure5(&sb, data, ScaleSmall)
	got := sb.String()

	golden := filepath.Join("testdata", "fig5_small.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Figure 5 output drifted from the golden capture.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
