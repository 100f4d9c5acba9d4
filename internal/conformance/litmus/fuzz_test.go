package litmus

import (
	"slices"
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/tmtest"
)

// FuzzLitmus is the native fuzz target: arbitrary bytes decode to a
// valid litmus program, which runs on every system across a small
// schedule sample and is cross-checked against the sequential oracle —
// strong systems must stay inside it, and every system must satisfy its
// atomicity class's serializability check. `go test` replays the
// curated programs' encodings and the committed corpus under
// testdata/fuzz/FuzzLitmus (conformance.TestSeededCorpus holds it to
// what it must reach); CI runs a 30-second smoke on top.
func FuzzLitmus(f *testing.F) {
	for _, p := range Curated() {
		f.Add(EncodeProgram(p))
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
			sw := Sweep(arena, sys, p, oracle, orders, gaps)
			if len(sw.Errs) > 0 {
				t.Fatalf("%s on %s: %v", sys, p.Doc, sw.Errs)
			}
			if class, ok := heldTo(arena, sys, p, sw, orders, gaps); !ok {
				t.Errorf("%s violates its %s-class check on %s (strong=%v atomic=%v weak=%v, extras=%v)",
					sys, class, p.Doc, sw.StrongOK, sw.AtomicOK, sw.WeakOK, sw.Extras)
			}
		}
	})
}

// heldTo returns the class a test holds sys to on p, and whether sw, its
// sweep of p under orders × gaps, meets it. The class is ClassOf's, and
// its check is narrowed only where one of two known defects shows:
//   - phtm, once it commits in software, is held to the weak class: its
//     software phase runs weakly-atomic USTM
//     (TestKnownDefectPhTMSoftwarePhaseIsWeak);
//   - below the strong class, on a program that writes outside a
//     transaction, a failed check is excused if in every run the
//     transactions serialize among themselves (txOnly): the weak and
//     serializable-only checks order a non-transactional write against
//     the transactions it races, which no weakly-atomic system here does
//     (TestKnownDefectWeakChecksOrderNTWrites).
func heldTo(arena *machine.Arena, sys harness.SystemKind, p *Program, sw SweepResult, orders [][]int, gaps []uint64) (Class, bool) {
	class := ClassOf(sys)
	if !sw.Check(class) && sys == harness.PhTM && sw.SWCommits > 0 {
		class = ClassWeak
	}
	if sw.Check(class) {
		return class, true
	}
	if class == ClassStrong || !writesOutsideTx(p) {
		return class, false
	}
	for _, order := range orders {
		for _, gap := range gaps {
			run := Execute(arena, sys, p, Schedule{Order: order, Gap: gap})
			if run.Err != nil || tmtest.CheckSerializable(txOnly(run), nil) != nil {
				return class, false
			}
		}
	}
	return class, true
}

// txOnly is run's committed transactions without their reads of a value
// a non-transactional store wrote: what a serial order of the
// transactions alone must explain. (Every store's value is unique to its
// program position, so a read's value names its writer.)
func txOnly(run RunResult) []tmtest.TxRecord {
	nt := map[tmtest.Access]bool{}
	for _, r := range run.NT {
		for _, w := range r.Writes {
			nt[w] = true
		}
	}
	out := make([]tmtest.TxRecord, len(run.Committed))
	for i, rec := range run.Committed {
		rec.Reads = slices.DeleteFunc(slices.Clone(rec.Reads), func(a tmtest.Access) bool { return nt[a] })
		out[i] = rec
	}
	return out
}

// writesOutsideTx reports whether p stores outside a transaction: a
// non-transactional write, or an effect's store.
func writesOutsideTx(p *Program) bool {
	for _, th := range p.Threads {
		for _, st := range th.Steps {
			for _, op := range st.Ops {
				if op.Kind == OpEffect || op.Kind == OpWrite && !st.Tx {
					return true
				}
			}
		}
	}
	return false
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
