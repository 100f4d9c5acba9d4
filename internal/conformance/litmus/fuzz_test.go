package litmus

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/tmtest"
)

// FuzzLitmus is the native fuzz target: arbitrary bytes decode to a
// valid litmus program, which runs on every system across a small
// schedule sample. Every system must pass its atomicity class's check,
// and on a program with an oracle, every run the strong check passes
// must end inside it. `go test` replays the curated programs' encodings
// and the committed corpus under testdata/fuzz/FuzzLitmus
// (conformance.TestSeededCorpus holds it to what it must reach); CI runs
// a 30-second smoke on top, and the nightly run ten minutes.
func FuzzLitmus(f *testing.F) {
	for _, p := range Curated() {
		f.Add(encodeProgram(p))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := DecodeProgram(data)
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder produced an invalid program: %v", err)
		}
		oracle := Oracle(p)
		orders, _ := EnumOrders(p.OpCounts(), 3, DecodeSeed(data))
		gaps := []uint64{0, 300}
		arena := new(machine.Arena)
		for _, sys := range harness.AllSystems {
			sw := Sweep(arena, sys, p, orders, gaps)
			if len(sw.Errs) > 0 {
				t.Fatalf("%s on %s: %v", sys, p.Doc, sw.Errs)
			}
			if oracle != nil {
				assertSound(t, sys, p, sw, oracle)
			}
			if class, ok := heldTo(sys, sw); !ok {
				t.Errorf("%s violates its %s-class check on %s (strong=%v atomic=%v weak=%v)",
					sys, class, p.Doc, sw.StrongOK, sw.AtomicOK, sw.WeakOK)
			}
		}
	})
}

// assertSound fails t if a run of sw passed the strong check yet ended
// outside oracle: the check would then accept an outcome no
// strongly-atomic execution produces.
func assertSound(t *testing.T, sys harness.SystemKind, p *Program, sw SweepResult, oracle *OutcomeSet) {
	t.Helper()
	for _, key := range sw.Consistent.Keys() {
		if !oracle.Has(key) {
			t.Errorf("%s on %s: a run ending outside the oracle, in %q, passed the strong check", sys, p.Name, key)
		}
	}
}

// heldTo returns the class a test holds sys to, and whether sw, its
// sweep of a program, meets it. The class is ClassOf's, narrowed only
// where a known defect shows: phtm, once it commits in software, is
// held to the weak class, since its software phase runs weakly-atomic
// USTM (TestKnownDefectPhTMSoftwarePhaseIsWeak).
func heldTo(sys harness.SystemKind, sw SweepResult) (tmtest.Class, bool) {
	class := ClassOf(sys)
	if !sw.Check(class) && sys == harness.PhTM && sw.SWCommits > 0 {
		class = tmtest.Weak
	}
	return class, sw.Check(class)
}

// everyKind holds each op kind at least once, in multi-transaction
// threads.
var everyKind = &Program{
	Name: "every-kind",
	Vars: 3,
	Threads: []Thread{
		T("a", Atomic(Syscall(), W(0, 1), Effect(2, 2)), NT(R(2)), Atomic(Nest(), R(1), W(1, 3), Unnest(true), Abort(), F())),
		T("b", Atomic(Guard(0), Nest(), W(2, 4), Unnest(false)), NT(W(1, 5)), Atomic(R(0), R(1), R(2))),
	},
}

// TestCodecRoundTrip: encoding a program and decoding it back preserves
// the shape (structure, kinds, variables — values are positional by
// design), for every curated program and for every op kind.
func TestCodecRoundTrip(t *testing.T) {
	for _, p := range append(Curated(), everyKind) {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		q := DecodeProgram(encodeProgram(p))
		if err := q.Validate(); err != nil {
			t.Fatalf("%s: round-trip invalid: %v", p.Name, err)
		}
		if len(q.Threads) != len(p.Threads) || q.Vars != p.Vars {
			t.Fatalf("%s: round-trip changed dimensions", p.Name)
		}
		for ti := range p.Threads {
			if got, want := shapeKey(q.Threads[ti].Steps), shapeKey(p.Threads[ti].Steps); got != want {
				t.Errorf("%s thread %d: shape %q round-tripped to %q", p.Name, ti, want, got)
			}
		}
	}
}

// TestDecodeTotal: every input, including empty and short ones and ones
// whose ops cannot stand where they decode, decodes to a valid program.
func TestDecodeTotal(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0},
		{255},
		{0, 0, 0},
		{255, 255, 255, 255, 255, 255, 255, 255, 255, 255},
		{1, 2, 63, 17, 42, 63, 0, 9},
		// A nest inside a nest, an unnest outside one, a nest left open,
		// and a guard with no writer: every kind in a non-tx step too.
		{0, 3, 0, 15, 5, 5, 6, 9, 7, 4, 8, 5, 0, 1, 3},
		{1, 1, 2, 1, 4, 0, 7, 1, 8, 2, 3, 5, 6, 9, 1, 9},
	}
	for _, in := range inputs {
		p := DecodeProgram(in)
		if err := p.Validate(); err != nil {
			t.Errorf("input %v: %v", in, err)
		}
	}
	for i := 0; i < 2000; i++ {
		in := make([]byte, i%97)
		for j := range in {
			in[j] = byte(i*31 + j*j*7)
		}
		if err := DecodeProgram(in).Validate(); err != nil {
			t.Fatalf("input %v: %v", in, err)
		}
	}
}

// encodeProgram is the decoder's inverse for corpus seeding. It takes a
// valid program in codec range (2-3 threads, 1-4 vars, up to
// codecMaxSteps steps per thread and codecMaxOps ops per transaction)
// and panics on anything else. Write values do not round-trip — decoding
// re-assigns them by position — which is fine for seeds: the fuzzer
// cares about shapes, not constants.
func encodeProgram(p *Program) []byte {
	if len(p.Threads) < 2 || len(p.Threads) > 3 || p.Vars > 4 {
		panic("litmus: program outside codec range")
	}
	out := []byte{byte(len(p.Threads) - 2), byte(p.Vars - 1)}
	for _, th := range p.Threads {
		if len(th.Steps) > codecMaxSteps {
			panic("litmus: program outside codec range")
		}
		out = append(out, byte(len(th.Steps)-1))
		for _, st := range th.Steps {
			shape := 0
			if st.Tx {
				if len(st.Ops) > codecMaxOps {
					panic("litmus: program outside codec range")
				}
				shape = 1 | (len(st.Ops)-1)<<1
			}
			out = append(out, byte(shape))
			for _, op := range st.Ops {
				out = append(out, byte(codeOf(op)+codecCodes*op.Var))
			}
		}
	}
	return out
}

// codeOf is op's codec code.
func codeOf(op Op) int {
	if op.Kind == OpUnnest && op.Val != 0 {
		return codeAbortingUnnest
	}
	return int(op.Kind)
}
