package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/conformance/litmus"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/tmtest"
)

// The tests over litmus.FuzzLitmus's committed corpus: the programs `go
// test` replays there, through the class checks, are also the ones these
// hold to what the one program generator must reach.

// corpusDir holds litmus.FuzzLitmus's committed corpus.
var corpusDir = filepath.Join("litmus", "testdata", "fuzz", "FuzzLitmus")

// readCorpusEntry reads corpus entry name: a "go test fuzz v1" file
// holding one []byte.
func readCorpusEntry(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(corpusDir, name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value fuzz corpus file", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// committed counts h's committed transactions.
func committed(h tmtest.History) int {
	n := 0
	for _, nd := range h.Nodes {
		if nd.Tx {
			n++
		}
	}
	return n
}

// hybrids are the systems with a hardware half that fails over to a
// software path.
var hybrids = []harness.SystemKind{harness.UFOHybrid, harness.HyTM, harness.PhTM, harness.HybridNOrec, harness.SLE}

// TestFuzzSerializabilityAllSystems runs the seeded long programs of the
// corpus, long-p<threads>-seed<n> (ten read-modify-write transactions
// per thread over four shared lines, a third of them opening with a
// syscall), on every system in harness.AllSystems at 2 and 3 threads and
// 8 seeds, each under one schedule: every transaction commits, and the
// committed transactions pass the weak check (one order of them explains
// every observation they made). The
// sequential baseline runs the 2-thread programs on its one processor.
// FuzzLitmus replays the same programs under more schedules and the
// class checks.
func TestFuzzSerializabilityAllSystems(t *testing.T) {
	for _, kind := range harness.AllSystems {
		threadCounts := []int{2, 3}
		if kind == harness.Sequential {
			threadCounts = []int{1}
		}
		for _, procs := range threadCounts {
			for seed := 1; seed <= 8; seed++ {
				t.Run(fmt.Sprintf("%s/p%d/seed%d", kind, procs, seed), func(t *testing.T) {
					p := litmus.DecodeProgram(readCorpusEntry(t, fmt.Sprintf("long-p%d-seed%d", max(procs, 2), seed)))
					orders, _ := litmus.EnumOrders(p.OpCounts(), 1, uint64(seed))
					run := litmus.Execute(new(machine.Arena), kind, p, litmus.Schedule{Order: orders[0], Gap: 60})
					if run.Err != nil {
						t.Fatal(run.Err)
					}
					if got, want := committed(run.History), 10*len(p.Threads); got != want {
						t.Fatalf("recorded %d transactions, want %d", got, want)
					}
					if err := tmtest.Check(run.History, tmtest.Weak); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestSeededCorpus holds the corpus to what the one generator must
// reach. It runs each entry once on every system, under the first of
// FuzzLitmus's schedules and without its class checks: every transaction
// commits; every system commits at least 400 transactions over the
// corpus, as many as the hand-rolled serializability loop it replaced;
// each hybrid fails over and commits in software; and every op kind,
// the aborting unnest included, appears.
func TestSeededCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	commits, failovers, swCommits := map[harness.SystemKind]uint64{}, map[harness.SystemKind]uint64{}, map[harness.SystemKind]uint64{}
	kinds := map[litmus.OpKind]bool{}
	abortingNest := false
	arena := new(machine.Arena)
	for _, file := range files {
		data := readCorpusEntry(t, filepath.Base(file))
		p := litmus.DecodeProgram(data)
		txs := 0
		for _, th := range p.Threads {
			for _, st := range th.Steps {
				if st.Tx {
					txs++
				}
				for _, op := range st.Ops {
					kinds[op.Kind] = true
					abortingNest = abortingNest || op.Kind == litmus.OpUnnest && op.Val != 0
				}
			}
		}
		orders, _ := litmus.EnumOrders(p.OpCounts(), 1, litmus.DecodeSeed(data))
		for _, sys := range harness.AllSystems {
			run := litmus.Execute(arena, sys, p, litmus.Schedule{Order: orders[0]})
			if run.Err != nil {
				t.Fatalf("%s: %v", filepath.Base(file), run.Err)
			}
			if n := committed(run.History); n != txs {
				t.Errorf("%s on %s: %d of %d transactions committed", filepath.Base(file), sys, n, txs)
			}
			commits[sys] += run.Stats.Commits()
			failovers[sys] += run.Stats.Failovers
			swCommits[sys] += run.Stats.SWCommits
		}
	}
	for _, sys := range harness.AllSystems {
		t.Logf("%-13s commits=%d failovers=%d swCommits=%d", sys, commits[sys], failovers[sys], swCommits[sys])
		if commits[sys] < 400 {
			t.Errorf("%s commits %d transactions over the corpus, want >= 400", sys, commits[sys])
		}
	}
	for _, sys := range hybrids {
		if failovers[sys] == 0 || swCommits[sys] == 0 {
			t.Errorf("%s never reaches its software path over the corpus: %d failovers, %d software commits", sys, failovers[sys], swCommits[sys])
		}
	}
	for k := litmus.OpRead; k <= litmus.OpEffect; k++ {
		if !kinds[k] {
			t.Errorf("no corpus program holds op kind %d", k)
		}
	}
	if !abortingNest {
		t.Error("no corpus program holds an aborting nest")
	}
}

// TestNTWritersHeldToClassOf: the corpus entries that write outside a
// transaction (a non-transactional write or an effect) pass ClassOf's
// own check on every system under FuzzLitmus's schedules.
// regress-nt-write-window pins the NT-store completion window that the
// hardware halves of hytm, sle, hybrid-norec and phtm can hit.
func TestNTWritersHeldToClassOf(t *testing.T) {
	for _, name := range []string{
		"curated-publication", "curated-sb-nt", "curated-sb-nt-fence", "kind-effect", "kind-nest",
		"regress-nt-write-window", "regress-serial-search-budget", "regress-serial-search-order",
	} {
		data := readCorpusEntry(t, name)
		p := litmus.DecodeProgram(data)
		orders, _ := litmus.EnumOrders(p.OpCounts(), 3, litmus.DecodeSeed(data))
		arena := new(machine.Arena)
		for _, sys := range harness.AllSystems {
			sw := litmus.Sweep(arena, sys, p, orders, []uint64{0, 300})
			if class := litmus.ClassOf(sys); !sw.Check(class) {
				t.Errorf("%s on %s: %s-class check failed (strong=%v atomic=%v weak=%v errs=%v)",
					name, sys, class, sw.StrongOK, sw.AtomicOK, sw.WeakOK, sw.Errs)
			}
		}
	}
}
