package harness

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestGoldensDefaultPolicy pins the default contention-management policy
// to the captured behavior: each small-scale experiment below must
// reproduce its golden byte for byte — same simulated cycle counts, same
// speedups, same stats. Any change to backoff timing, RNG draw order, or
// retry structure shows up here first.
//
// Figure 5 exercises the hardware retry arm of every system; its
// workloads never issue a syscall and the default policy never
// escalates, so the other three pin the arms it cannot reach: the
// policy ablation runs every cm kind (including serialize's escalation
// to software and to the token) over the two hybrids, Figure 7 forces
// failovers by syscall at every rate, Figure 8 fails over on the Nth
// conflict and stalls on UFO faults.
//
// Regenerate (deliberately!) with `go test -run TestGoldensDefaultPolicy
// -update ./internal/harness/`.
func TestGoldensDefaultPolicy(t *testing.T) {
	opt := DefaultOptions()
	opt.Params.Seed = 1 // the tmsim -seed default the goldens were captured with
	r := Parallel(0)
	for _, g := range []struct {
		name   string
		render func(w io.Writer) error
	}{
		{"fig5_small", func(w io.Writer) error {
			data, err := r.Figure5(opt, ScaleSmall)
			PrintFigure5(w, data, ScaleSmall)
			return err
		}},
		{"policies_small", func(w io.Writer) error {
			rows, err := r.PolicySweep(opt, ScaleSmall)
			PrintPolicySweep(w, rows)
			return err
		}},
		{"fig7_small", func(w io.Writer) error {
			data, err := r.Figure7(opt, ScaleSmall)
			PrintFigure7(w, data, ScaleSmall)
			return err
		}},
		{"fig8_small", func(w io.Writer) error {
			rows, err := r.Figure8(opt, ScaleSmall)
			PrintFigure8(w, rows)
			return err
		}},
	} {
		t.Run(g.name, func(t *testing.T) {
			var sb strings.Builder
			if err := g.render(&sb); err != nil {
				t.Fatal(err)
			}
			got := sb.String()

			golden := filepath.Join("testdata", g.name+".golden")
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
				t.Fatalf("%s output drifted from the golden capture.\n--- got ---\n%s\n--- want ---\n%s", g.name, got, want)
			}
		})
	}
}
