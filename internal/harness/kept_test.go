package harness

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/tm"
)

// TestKeptContextsAreBlank: a processor's TM contexts outlive their cell
// (machine.ContextOf), so every Exec rewrites each one. On every system,
// after a cell that ran out of steps mid-transaction, each context the
// next cell's Exec returns on the same arena equals the one Exec returns
// on a new machine, field by field — and so does everything it reaches
// short of the machine, USTM's Threads and the system included — but for
// slice capacity and which func a hook is (shape). A field a reset
// literal drops reads nil or zero where a new context's is set, one it
// carries over reads what the halted cell left, and a pointer to the
// halted cell's system renders that system's counts.
func TestKeptContextsAreBlank(t *testing.T) {
	for _, kind := range AllSystems {
		threads := 2
		if kind == Sequential {
			threads = 1
		}
		// The first cell runs out of steps mid-transaction: at the first
		// budget from 2,000 up that stops one in flight.
		starved := testOptions()
		starved.Params.MaxSteps, starved.TxStats = 2000, true
		first := Job{System: kind, Threads: threads, Opt: starved,
			Factory: WorkloadFactory{Name: "restless", New: func() stamp.Workload { return new(restless) }}}
		arena := new(machine.Arena)
		for {
			res := runOn(arena, first)
			var halt *sim.Halt
			if !errors.As(res.Err, &halt) || halt.Kind != "budget" {
				t.Fatalf("%s: the first cell ended with %v, want a budget halt", kind, res.Err)
			}
			if res.TxStats.InFlight > 0 {
				break
			}
			if first.Opt.Params.MaxSteps++; first.Opt.Params.MaxSteps > 2100 {
				t.Fatalf("%s: no budget up to 2,100 steps halts the first cell mid-transaction", kind)
			}
		}
		opt := testOptions()
		opt.Params.Procs = threads
		kept, fresh := arena.New(opt.Params), machine.New(opt.Params)
		keptSys, freshSys := Build(kind, kept, opt), Build(kind, fresh, opt)
		for i := 0; i < threads; i++ {
			got := shape(keptSys.Exec(kept.Proc(i)), kept)
			want := shape(freshSys.Exec(fresh.Proc(i)), fresh)
			if got != want {
				t.Errorf("%s: processor %d's kept context differs from a new one:\n%s\nwant\n%s", kind, i, got, want)
			}
		}
		kept.Release()
	}
}

// restless runs transactions until the step budget stops it. Each one
// registers a commit action, stores in a nest and outside it, and reads
// a line every thread writes; every third makes a system call, which
// sends a hybrid's to software. A halted cell leaves its contexts' logs
// and lists in use, and a conflict or two behind it.
type restless struct{ base uint64 }

func (w *restless) Init(m *machine.Machine, threads int) {
	w.base = m.Mem.Sbrk(uint64(threads+1) * 8 * mem.LineBytes)
}

func (w *restless) Thread(i int, ex tm.Exec) {
	shared, own := w.base, w.base+uint64(i+1)*8*mem.LineBytes
	for k := uint64(0); ; k++ {
		ex.Atomic(func(tx tm.Tx) {
			if k%3 == 0 {
				tx.Syscall() // a hybrid's software path
			}
			tx.OnCommit(func() {})
			tx.Nested(func() { tx.Store(own+k%8*mem.LineBytes, k) })
			tx.Store(shared, tx.Load(shared)+1)
			tx.Store(own, tx.Load(own+mem.LineBytes)+k)
		})
	}
}

func (*restless) Validate(*machine.Machine) error { return nil }

// shape renders v and everything it reaches: funcs as set or nil, maps
// and slices by length and elements, a struct reached again as the path
// it was first rendered at, and package machine's values by name — m as
// "machine", its processors by number, anything else of package machine
// (another machine, an arena table) by type alone.
func shape(v any, m *machine.Machine) string {
	s := shaper{seen: map[shapeKey]string{}, names: map[uintptr]string{}}
	s.names[reflect.ValueOf(m).Pointer()] = "machine"
	for _, p := range m.Procs() {
		s.names[reflect.ValueOf(p).Pointer()] = fmt.Sprintf("proc %d", p.ID())
	}
	s.render(reflect.ValueOf(v), "ctx")
	return s.b.String()
}

type shapeKey struct {
	addr uintptr
	typ  reflect.Type
}

type shaper struct {
	b     strings.Builder
	seen  map[shapeKey]string
	names map[uintptr]string
}

func (s *shaper) render(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Struct:
		if v.CanAddr() {
			k := shapeKey{v.Addr().Pointer(), v.Type()}
			if at, ok := s.seen[k]; ok {
				fmt.Fprintf(&s.b, "→%s", at)
				return
			}
			s.seen[k] = path
		}
		fmt.Fprintf(&s.b, "%s{", v.Type())
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			fmt.Fprintf(&s.b, "%s:", name)
			s.render(v.Field(i), path+"."+name)
			s.b.WriteByte(' ')
		}
		s.b.WriteByte('}')
	case reflect.Pointer:
		switch {
		case v.IsNil():
			s.b.WriteString("nil")
		case s.names[v.Pointer()] != "":
			s.b.WriteString(s.names[v.Pointer()])
		case v.Type().Elem().PkgPath() == "repro/internal/machine":
			fmt.Fprintf(&s.b, "%s", v.Type())
		default:
			s.b.WriteByte('&')
			s.render(v.Elem(), path)
		}
	case reflect.Interface:
		if v.IsNil() {
			s.b.WriteString("nil")
			return
		}
		s.render(v.Elem(), path)
	case reflect.Func, reflect.Chan:
		fmt.Fprintf(&s.b, "%s set=%v", v.Kind(), !v.IsNil())
	case reflect.Map:
		fmt.Fprintf(&s.b, "map len=%d", v.Len())
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(&s.b, "len=%d[", v.Len())
		for i := 0; i < v.Len(); i++ {
			s.render(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			s.b.WriteByte(' ')
		}
		s.b.WriteByte(']')
	default:
		fmt.Fprint(&s.b, v)
	}
}
