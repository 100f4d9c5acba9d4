package litmus

// The fuzz codec: a byte encoding of litmus programs, the one program
// generator behind the native go-fuzz target and its committed corpus.
// Decoding is total — every byte string maps to a valid program via
// clamping, with zeros supplied when the input runs out — so the fuzzer's
// mutations always land on executable programs.
//
// Layout: [threads-2][vars-1], then per thread [steps-1] and, per step, a
// shape byte (bit 0: a transaction; above it, the transaction's op count
// less one) followed by one byte per op (code + codecCodes*variable). A
// code is an OpKind, or codeAbortingUnnest. An op that cannot stand where
// it decodes (Validate's rules) becomes a read, write or fence (its code
// mod 3), and a nest still open at the end of its transaction is closed.
// Write and effect values are not encoded: newThread assigns them by
// position, as it does for enumerated programs.

const (
	codecMaxSteps      = 16 // steps per thread
	codecMaxOps        = 8  // ops per transaction
	codeAbortingUnnest = int(OpEffect) + 1
	codecCodes         = codeAbortingUnnest + 1
)

type byteReader struct {
	data []byte
	pos  int
}

// next returns the next byte, or zero once the input is exhausted.
func (r *byteReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// DecodeProgram builds a valid program from arbitrary bytes.
func DecodeProgram(data []byte) *Program {
	r := &byteReader{data: data}
	threads := 2 + int(r.next())%2
	vars := 1 + int(r.next())%4
	p := &Program{Name: "fuzz", Vars: vars}
	var written uint64 // txWrites of the threads decoded so far
	guards := 0
	for ti := 0; ti < threads; ti++ {
		steps := make([]Step, 1+int(r.next())%codecMaxSteps)
		for si := range steps {
			s := int(r.next())
			st, n := Step{Tx: s&1 != 0}, 1
			if st.Tx {
				n = 1 + (s>>1)%codecMaxOps
			}
			nest := false
			for i := 0; i < n; i++ {
				b := int(r.next())
				code, v := b%codecCodes, (b/codecCodes)%vars
				op := Op{Kind: OpKind(code), Var: v}
				if code == codeAbortingUnnest {
					op.Kind, op.Val = OpUnnest, 1
				}
				if !fits(op, st.Tx, nest, guards == 0 && written&(1<<v) != 0) {
					op = Op{Kind: OpKind(code % 3), Var: v}
				}
				nest = (nest || op.Kind == OpNest) && op.Kind != OpUnnest
				if op.Kind == OpGuard {
					guards++
				}
				st.Ops = append(st.Ops, op)
			}
			if nest {
				st.Ops = append(st.Ops, Op{Kind: OpUnnest})
			}
			steps[si] = st
		}
		th := newThread(ti, steps)
		written |= txWrites(th.Steps)
		p.Threads = append(p.Threads, th)
	}
	p.Doc = "fuzz-decoded shape " + shapeDoc(p)
	return p
}

// DecodeSeed folds the remaining bytes (and the whole input) into a
// schedule-sampling seed, so mutating the tail explores new orders even
// with an unchanged program.
func DecodeSeed(data []byte) uint64 {
	var seed uint64 = 0x9e3779b97f4a7c15
	for _, b := range data {
		seed = seed*1099511628211 + uint64(b)
	}
	return seed
}

// EncodeProgram is the decoder's inverse for corpus seeding. It takes a
// valid program in codec range (2-3 threads, 1-4 vars, up to
// codecMaxSteps steps per thread and codecMaxOps ops per transaction)
// and panics on anything else. Write values do not round-trip — decoding
// re-assigns them by position — which is fine for seeds: the fuzzer
// cares about shapes, not constants.
func EncodeProgram(p *Program) []byte {
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

func shapeDoc(p *Program) string {
	keys := make([]string, len(p.Threads))
	for i, th := range p.Threads {
		keys[i] = shapeKey(th.Steps)
	}
	s := keys[0]
	for _, k := range keys[1:] {
		s += " | " + k
	}
	return s
}
