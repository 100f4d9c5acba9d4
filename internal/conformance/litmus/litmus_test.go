package litmus

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
)

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		p    Program
	}{
		{"no vars", Program{Name: "x", Vars: 0, Threads: []Thread{T("a", NT(R(0)))}}},
		{"too many vars", Program{Name: "x", Vars: 5, Threads: []Thread{T("a", NT(R(0)))}}},
		{"no threads", Program{Name: "x", Vars: 1}},
		{"empty thread", Program{Name: "x", Vars: 1, Threads: []Thread{{Name: "a"}}}},
		{"empty step", Program{Name: "x", Vars: 1, Threads: []Thread{{Name: "a", Steps: []Step{{Tx: true}}}}}},
		{"multi-op nt step", Program{Name: "x", Vars: 1, Threads: []Thread{{Name: "a", Steps: []Step{{Ops: []Op{R(0), R(0)}}}}}}},
		{"var out of range", Program{Name: "x", Vars: 1, Threads: []Thread{T("a", NT(R(1)))}}},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a malformed program", tc.name)
		}
	}
	for _, p := range Curated() {
		if err := p.Validate(); err != nil {
			t.Errorf("curated %s: %v", p.Name, err)
		}
	}
}

func TestStateKeyAndCond(t *testing.T) {
	s := State{Mem: []uint64{1, 0}, Regs: [][]uint64{{2}, {0, 7}}}
	if got, want := s.Key(), "x=1 y=0 t0:r0=2 t1:r0=0 t1:r1=7"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	if !(Cond{"x": 1, "t1:r1": 7}).Matches(s) {
		t.Error("matching cond rejected")
	}
	if (Cond{"x": 0}).Matches(s) {
		t.Error("wrong value matched")
	}
	if (Cond{"nosuch": 0}).Matches(s) {
		t.Error("unknown observable matched")
	}
	if got, want := (Cond{"y": 2, "x": 1}).Key(), "x=1 y=2"; got != want {
		t.Fatalf("Cond.Key() = %q, want %q", got, want)
	}
}

// TestOracleSB pins the oracle on the fully-transactional store-buffering
// shape: two serializable orders, and never both loads zero.
func TestOracleSB(t *testing.T) {
	var sb *Program
	for _, p := range Curated() {
		if p.Name == "sb-tx" {
			sb = p
		}
	}
	oracle := Oracle(sb)
	want := []string{
		"x=1 y=1 t0:r0=0 t1:r0=1",
		"x=1 y=1 t0:r0=1 t1:r0=0",
	}
	if got := oracle.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("oracle = %v, want %v", got, want)
	}
}

// TestOracleFenceIsNoOp: the fence variant of store buffering has the
// same oracle as the plain one (SC machine, fences schedulable no-ops).
func TestOracleFenceIsNoOp(t *testing.T) {
	byName := map[string]*Program{}
	for _, p := range Curated() {
		byName[p.Name] = p
	}
	plain := Oracle(byName["sb-nt"]).Keys()
	fenced := Oracle(byName["sb-nt-fence"]).Keys()
	if !reflect.DeepEqual(plain, fenced) {
		t.Fatalf("fenced oracle %v differs from plain %v", fenced, plain)
	}
}

// TestForbiddenOutsideOracle: every curated Forbidden condition must be
// unreachable under strong atomicity — matching no oracle state. A
// condition that matched would make the whole verdict table vacuous.
func TestForbiddenOutsideOracle(t *testing.T) {
	for _, p := range Curated() {
		oracle := Oracle(p)
		for _, cond := range p.Expect.Forbidden {
			for _, key := range oracle.Keys() {
				st, _ := oracle.Get(key)
				if cond.Matches(st) {
					t.Errorf("%s: forbidden %q matches oracle state %q", p.Name, cond.Key(), key)
				}
			}
		}
	}
}

// TestEnumOrders checks exhaustive enumeration, the cap, and sampling
// determinism.
func TestEnumOrders(t *testing.T) {
	orders, total := EnumOrders([]int{2, 2}, 0, 1)
	if total != 6 || len(orders) != 6 {
		t.Fatalf("got %d orders (total %d), want 6", len(orders), total)
	}
	for _, o := range orders {
		n0, n1 := 0, 0
		for _, ti := range o {
			if ti == 0 {
				n0++
			} else {
				n1++
			}
		}
		if n0 != 2 || n1 != 2 {
			t.Fatalf("order %v is not a multiset permutation of {0,0,1,1}", o)
		}
	}
	capped, total := EnumOrders([]int{3, 3, 3}, 16, 42)
	if total <= 16 || len(capped) != 16 {
		t.Fatalf("cap: got %d orders (total %d)", len(capped), total)
	}
	again, _ := EnumOrders([]int{3, 3, 3}, 16, 42)
	if !reflect.DeepEqual(capped, again) {
		t.Fatal("sampled orders differ across identical calls")
	}
}

// sameRun fails the test unless two runs of one schedule agree on the
// final state and on both histories.
func sameRun(t *testing.T, what string, a, b RunResult) {
	t.Helper()
	if a.Err != nil || b.Err != nil {
		t.Fatalf("%s: run errors %v / %v", what, a.Err, b.Err)
	}
	if a.State.Key() != b.State.Key() {
		t.Fatalf("%s: state %q != %q", what, a.State.Key(), b.State.Key())
	}
	if !reflect.DeepEqual(a.Committed, b.Committed) || !reflect.DeepEqual(a.NT, b.NT) {
		t.Fatalf("%s: histories differ", what)
	}
}

// TestExecuteDeterministic: one (system, program, schedule) triple is a
// pure function — the same state and histories across replays, whether
// the machine is built on a fresh arena or on one an earlier run (of any
// system) released.
func TestExecuteDeterministic(t *testing.T) {
	p := Curated()[3] // mp-nt-witness
	orders, _ := EnumOrders(p.OpCounts(), 0, 1)
	reused := new(machine.Arena)
	for _, sys := range Systems() {
		for _, order := range orders[:2] {
			sch := Schedule{Order: order, Gap: 130}
			a := Execute(new(machine.Arena), sys, p, sch)
			sameRun(t, sys+" replayed on a fresh arena", a, Execute(new(machine.Arena), sys, p, sch))
			sameRun(t, sys+" replayed on a released arena", a, Execute(reused, sys, p, sch))
		}
	}
}

// TestPanickedRunLeavesItsArenaUsable: a run that panics is an error,
// not a crash, and the arena it leaves behind builds the next run as a
// fresh one would.
func TestPanickedRunLeavesItsArenaUsable(t *testing.T) {
	p := Curated()[3]
	sch := Schedule{Order: firstOrder(p.OpCounts(), false), Gap: 130}
	arena := new(machine.Arena)
	Execute(arena, "tl2", p, sch) // leave tables in the arena
	if res := Execute(arena, "no-such-system", p, sch); res.Err == nil || !strings.Contains(res.Err.Error(), "panic") {
		t.Fatalf("a run on an unknown system returned %v, want its panic as an error", res.Err)
	}
	for _, sys := range []string{"tl2", "ustm+ufo"} {
		sameRun(t, sys+" after a panicked run", Execute(new(machine.Arena), sys, p, sch), Execute(arena, sys, p, sch))
	}
}

// TestCuratedSuite is the conformance gate: the full curated suite on
// every system (the whole harness matrix), with the CI-sized
// schedule space. Any class-check violation or witness-expectation
// mismatch — a strong system escaping the oracle, a weak system's
// documented anomaly disappearing or a new one appearing — fails here.
func TestCuratedSuite(t *testing.T) {
	cfg := SmallConfig()
	cfg.Enums = nil
	rep := Run(harness.Parallel(0), cfg)
	for _, f := range rep.Failures {
		t.Error(f)
	}
	// The expected strong/weak split, stated positively: these witnesses
	// must be present (Run already checks exact per-program match).
	wantWitness := map[string][]string{ // sorted
		"mp-nt-witness":      {"global-lock", "ustm"},
		"mp-writeback":       {"global-lock", "tl2", "ustm"},
		"intermediate-value": {"global-lock", "ustm"},
	}
	for _, pr := range rep.Programs {
		var got []string
		for _, v := range pr.Systems {
			if len(v.Witnessed) > 0 {
				got = append(got, v.System)
			}
			if ClassOf(v.System) == ClassStrong && len(v.Extras) > 0 {
				t.Errorf("%s: strong system %s escaped the oracle: %v", pr.Name, v.System, v.Extras)
			}
		}
		sort.Strings(got)
		want := wantWitness[pr.Name]
		if len(got) != len(want) {
			t.Errorf("%s: witnessing systems %v, want %v", pr.Name, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: witnessing systems %v, want %v", pr.Name, got, want)
			}
		}
	}
}

// TestEnumerate pins the enumerator's determinism and filters.
func TestEnumerate(t *testing.T) {
	cfg := EnumConfig{Threads: 2, Vars: 2, MaxTxOps: 1, MaxNTOps: 1, Seed: 3}
	a := Enumerate(cfg)
	b := Enumerate(cfg)
	if a.Total == 0 {
		t.Fatal("enumeration is empty")
	}
	if len(a.Programs) != len(b.Programs) {
		t.Fatalf("non-deterministic: %d vs %d programs", len(a.Programs), len(b.Programs))
	}
	seen := map[string]bool{}
	for i, p := range a.Programs {
		if p.Name != b.Programs[i].Name {
			t.Fatalf("program %d named %q vs %q across runs", i, p.Name, b.Programs[i].Name)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if seen[p.Doc] {
			t.Fatalf("duplicate shape %q", p.Doc)
		}
		seen[p.Doc] = true
		txs, reads, writes := 0, 0, 0
		for _, th := range p.Threads {
			for _, st := range th.Steps {
				if st.Tx {
					txs++
				}
				for _, op := range st.Ops {
					switch op.Kind {
					case OpRead:
						reads++
					case OpWrite:
						writes++
					}
				}
			}
		}
		if txs == 0 || reads == 0 || writes == 0 {
			t.Fatalf("%s: uninteresting program survived the filter (tx=%d r=%d w=%d)", p.Name, txs, reads, writes)
		}
	}
	// The cap drops deterministically and reports the drop.
	capped := Enumerate(EnumConfig{Threads: 2, Vars: 2, MaxTxOps: 1, MaxNTOps: 1, MaxPrograms: 5, Seed: 3})
	if len(capped.Programs) != 5 || capped.Dropped != capped.Total-5 {
		t.Fatalf("cap: kept %d dropped %d of %d", len(capped.Programs), capped.Dropped, capped.Total)
	}
}

// TestReportDeterminism: the JSON report is byte-identical across runs
// and across the Runner's worker counts (the acceptance criterion for
// the sweep's reproducibility).
func TestReportDeterminism(t *testing.T) {
	cfg := SmallConfig()
	cfg.Enums = []EnumConfig{{Threads: 2, Vars: 2, MaxTxOps: 1, MaxNTOps: 1, MaxPrograms: 4, Seed: 7}}
	render := func(workers int) []byte {
		var b bytes.Buffer
		if err := Run(harness.Parallel(workers), cfg).WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	one := render(1)
	for _, workers := range []int{0, 3, 8} {
		if !bytes.Equal(one, render(workers)) {
			t.Fatalf("report JSON differs between 1 and %d workers", workers)
		}
	}
	if !bytes.Equal(one, render(1)) {
		t.Fatal("report JSON differs across identical runs")
	}
}

// TestSystemsAreTheRegistry: litmus drives exactly the harness registry,
// in its order, which is the report's column order.
func TestSystemsAreTheRegistry(t *testing.T) {
	var want []string
	for _, k := range harness.AllSystems {
		want = append(want, string(k))
	}
	if got := Systems(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Systems() = %v, want harness.AllSystems %v", got, want)
	}
}

// TestClassOf pins the class table against the live system list.
func TestClassOf(t *testing.T) {
	want := map[string]Class{
		"sequential":    ClassStrong,
		"global-lock":   ClassWeak,
		"unbounded-htm": ClassStrong,
		"ufo-hybrid":    ClassStrong,
		"hytm":          ClassWeak,
		"phtm":          ClassStrong,
		"ustm":          ClassWeak,
		"ustm+ufo":      ClassStrong,
		"tl2":           ClassSerializable,
		"hybrid-norec":  ClassSerializable,
		"sle":           ClassWeak,
	}
	systems := Systems()
	if len(systems) != len(want) {
		t.Fatalf("Systems() lists %d systems, class table has %d — update both", len(systems), len(want))
	}
	for _, sys := range systems {
		w, ok := want[sys]
		if !ok {
			t.Errorf("system %s missing from class expectations", sys)
			continue
		}
		if got := ClassOf(sys); got != w {
			t.Errorf("ClassOf(%s) = %s, want %s", sys, got, w)
		}
	}
	if ClassOf("some-future-system") != ClassWeak {
		t.Error("unknown systems must default to the weakest class")
	}
}

// TestSweepSequentialBaseline: the sequential executor runs threads back
// to back on one processor, so it observes exactly one outcome, and that
// outcome is in the oracle.
func TestSweepSequentialBaseline(t *testing.T) {
	for _, p := range Curated() {
		oracle := Oracle(p)
		orders, _ := EnumOrders(p.OpCounts(), 4, 1)
		sw := Sweep(new(machine.Arena), "sequential", p, oracle, orders, []uint64{0, 300})
		if sw.Observed.Len() != 1 {
			t.Errorf("%s: sequential observed %d states, want 1", p.Name, sw.Observed.Len())
		}
		if !sw.StrongOK {
			t.Errorf("%s: sequential escaped the oracle: %v", p.Name, sw.Extras)
		}
	}
}

func ExampleProgram() {
	p := &Program{
		Name: "example",
		Vars: 2,
		Threads: []Thread{
			T("writer", Atomic(W(0, 1), W(1, 1))),
			T("reader", NT(R(1)), NT(R(0))),
		},
	}
	fmt.Println(Oracle(p).Keys())
	// Output:
	// [x=1 y=1 t1:r0=0 t1:r1=0 x=1 y=1 t1:r0=0 t1:r1=1 x=1 y=1 t1:r0=1 t1:r1=1]
}
