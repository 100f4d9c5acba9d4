package machine

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// Arena owns the host-side storage a machine is built over — the
// simulated memory, whose page slabs hold each page's words and its
// lines' records (UFO bits and directory state), the engine with its
// processor slab and ready heap, the processors with their L1s, hardware
// transaction buffers and TM contexts (ContextOf: each system's exec,
// with its driver, hooks and logs, and USTM's Thread), and the TM
// systems' big tables (TableOf) — so that it can outlive the machine. A
// machine that ends with Release hands all of it back, and the next New
// on the arena allocates only what it cannot reuse and sees none of what
// the last machine left: tables, L1s and processors come back blank, a
// kept page slab is blanked by the first touch that takes it, and a TM
// context by the Exec that takes it. The zero value is an
// empty arena. One machine at a time lives on an arena, released however
// its run ended (TestReleasedArenaIsBlank).
type Arena struct {
	mem    mem.Memory
	eng    sim.Engine
	procs  []*Proc           // every processor built here; a machine takes the first Params.Procs
	bodies []func(*sim.Proc) // what Run hands the engine: each runs its processor's workload
	tables []interface{ reset() }
}

// grow builds processors until the arena has n, binding each one's
// timer-interrupt hook and Run body once, and its contexts to ctxBuf.
func (a *Arena) grow(n int) {
	k := n - len(a.procs)
	if k <= 0 {
		return
	}
	body := func(sp *sim.Proc) {
		p := a.procs[sp.ID()]
		p.m.work[sp.ID()](p)
	}
	slab := make([]Proc, k)
	a.procs = append(a.procs, make([]*Proc, k)...)
	a.bodies = append(a.bodies, make([]func(*sim.Proc), k)...)
	for i := range slab {
		p := &slab[i]
		p.tick, p.ctxs = p.timerInterrupt, p.ctxBuf[:0]
		a.procs[n-k+i], a.bodies[n-k+i] = p, body
	}
}

// Release ends the machine's life and hands its storage back to the
// arena it was built on. It releases the hardware transaction a killed
// run left open, zeroes the L1s of the processors it had and the table
// rows marked Dirty, and unlinks the materialised page slabs without
// clearing them — the next machine's first touch of a page blanks the
// slab it takes, at that machine's record width — so the cost is
// O(rows and pages touched), not O(configured). The
// machine, and everything built over it, must not be used afterwards.
// Only a machine some later New will share an arena with needs it.
func (m *Machine) Release() {
	for _, p := range m.procs {
		if p.hwBuf != nil {
			p.hwBuf.release() // a run killed inside a hardware transaction leaves one open
		}
		p.l1.Reset()
	}
	m.Mem.Reset(0, 0)
	for _, t := range m.arena.tables {
		t.reset()
	}
}

// ContextOf returns p's TM context of type T, kept in the arena, and
// whether it is fresh (zero, new). The caller binds its hooks, which reach
// per-cell state only through its fields, when it is fresh, and on every
// call rewrites every other field in one literal that keeps only the hooks
// and the slices' storage (Emptied).
func ContextOf[T any](p *Proc) (ctx *T, fresh bool) {
	for _, c := range p.ctxs {
		if ctx, ok := c.(*T); ok {
			return ctx, false
		}
	}
	ctx = new(T)
	p.ctxs = append(p.ctxs, ctx)
	return ctx, true
}

// Emptied returns s at length zero, its storage kept and zeroed, so
// that it holds nothing of the cell that filled it.
func Emptied[S ~[]E, E any](s S) S {
	clear(s[:cap(s)])
	return s[:0]
}

// Table is a fixed-size table of T kept in a machine's arena: a TM
// system's ownership or lock table, too big to build per run. Rows are
// zero when handed out; the owner calls Dirty before it first changes a
// row, and Release zeroes the dirty rows only.
type Table[T any] struct {
	Rows  []T      // nil while no machine uses the table
	all   []T      // Rows' backing store: the largest size ever asked for
	mark  []uint64 // one bit per row of all: the row is on dirty
	dirty []uint64
}

// TableOf returns a zeroed table of the given number of rows from m's
// arena: one a released machine handed back, when there is one of this
// row type, else a new one. Two tables asked for by one machine are
// distinct.
func TableOf[T any](m *Machine, rows int) *Table[T] {
	var t *Table[T]
	for _, x := range m.arena.tables {
		if c, ok := x.(*Table[T]); ok && c.Rows == nil {
			t = c
			break
		}
	}
	if t == nil {
		t = new(Table[T])
		m.arena.tables = append(m.arena.tables, t)
	}
	if rows > len(t.all) {
		t.all, t.mark = make([]T, rows), make([]uint64, (rows+63)/64)
	}
	t.Rows = t.all[:rows]
	return t
}

// Dirty records that row i may no longer be zero.
func (t *Table[T]) Dirty(i uint64) {
	if w, bit := &t.mark[i/64], uint64(1)<<(i%64); *w&bit == 0 {
		*w |= bit
		t.dirty = append(t.dirty, i)
	}
}

func (t *Table[T]) reset() {
	var zero T
	for _, i := range t.dirty {
		t.all[i] = zero
		t.mark[i/64] = 0
	}
	t.Rows, t.dirty = nil, t.dirty[:0]
}
