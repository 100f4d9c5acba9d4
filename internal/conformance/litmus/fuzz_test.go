package litmus

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
)

// FuzzLitmus is the native fuzz target: arbitrary bytes decode to a
// valid litmus program, which runs on every system across a small
// schedule sample and is cross-checked against the sequential oracle —
// strong systems must stay inside it, and every system must satisfy its
// atomicity class's serializability check. The committed corpus under
// testdata/fuzz/FuzzLitmus holds the curated programs' encodings; CI
// runs a 30-second smoke on top of the corpus.
func FuzzLitmus(f *testing.F) {
	for _, p := range Curated() {
		f.Add(EncodeProgram(p))
	}
	gaps := []uint64{0, 300}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := DecodeProgram(data)
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder produced an invalid program: %v", err)
		}
		oracle := Oracle(p)
		orders, _ := EnumOrders(p.OpCounts(), 3, DecodeSeed(data))
		arena := new(machine.Arena)
		for _, sys := range harness.AllSystems {
			sw := Sweep(arena, sys, p, oracle, orders, gaps)
			if len(sw.Errs) > 0 {
				t.Fatalf("%s on %s: %v", sys, p.Doc, sw.Errs)
			}
			class := ClassOf(sys)
			if !sw.Check(class) {
				t.Errorf("%s violates its %s-class check on %s (strong=%v atomic=%v weak=%v, extras=%v)",
					sys, class, p.Doc, sw.StrongOK, sw.AtomicOK, sw.WeakOK, sw.Extras)
			}
		}
	})
}

// TestCodecRoundTrip: encoding a curated program and decoding it back
// preserves the shape (structure, kinds, variables — values are
// positional by design).
func TestCodecRoundTrip(t *testing.T) {
	for _, p := range Curated() {
		q := DecodeProgram(EncodeProgram(p))
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

// TestDecodeTotal: every input, including empty and short ones, decodes
// to a valid program.
func TestDecodeTotal(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0},
		{255},
		{0, 0, 0},
		{255, 255, 255, 255, 255, 255, 255, 255, 255, 255},
		{1, 2, 63, 17, 42, 63, 0, 9},
	}
	for _, in := range inputs {
		p := DecodeProgram(in)
		if err := p.Validate(); err != nil {
			t.Errorf("input %v: %v", in, err)
		}
	}
}
