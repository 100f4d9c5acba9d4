package machine

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/cache"
)

// Directory exposes the machine's directory to the external tests.
func (m *Machine) Directory() cache.Directory { return m.dir }

// HeldLines returns how many marked lines, each a (line, record) pair,
// the processors' hardware transaction buffers hold.
func (m *Machine) HeldLines() (n int) {
	for _, p := range m.procs {
		if t := p.hwBuf; t != nil {
			n += len(t.reads) + len(t.writes)
		}
	}
	return n
}

// Kept renders the state a machine's engine and processors may carry
// over from an earlier machine on their arena: every field of the
// engine, of each Proc and of its sim.Proc, with pointers, funcs and
// slices shown only as nil or not, or by length (they name storage that
// differs between any two machines), and each hardware transaction
// buffer by how much it holds. A fresh machine's must read the same. The
// TM contexts are left out: the arena keeps them by design (ContextOf),
// and harness's TestKeptContextsAreBlank holds each to a fresh one's.
func (m *Machine) Kept() string {
	var b strings.Builder
	render(&b, reflect.ValueOf(m.Eng).Elem())
	for _, p := range m.procs {
		q, held := *p, 0
		if t := q.hwBuf; t != nil {
			held = len(t.reads) + len(t.writes) + t.Spec.Len()
		}
		q.hwBuf, q.ctxs, q.ctxBuf = nil, nil, [2]any{}
		fmt.Fprintf(&b, "\nproc %d holds %d: ", p.ID(), held)
		render(&b, reflect.ValueOf(q))
		b.WriteString("\n  sim: ")
		render(&b, reflect.ValueOf(p.sp).Elem())
	}
	return b.String()
}

func render(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(b, "%s:", v.Type().Field(i).Name)
			render(b, v.Field(i))
			b.WriteByte(' ')
		}
		b.WriteByte('}')
	case reflect.Pointer, reflect.Func, reflect.Interface, reflect.Map, reflect.Chan:
		fmt.Fprintf(b, "nil=%v", v.IsNil())
	case reflect.Slice:
		fmt.Fprintf(b, "len=%d", v.Len())
	default:
		fmt.Fprint(b, v)
	}
}
