// Package watch implements iWatcher-style data watchpoints on top of UFO
// — the application fine-grained memory protection was originally
// proposed for, and the paper's evidence that UFO is a multi-purpose
// primitive (§3.2): zero-overhead monitoring of arbitrary memory
// in the common case of no triggers, with a software handler invoked on
// watched accesses.
package watch

import (
	"repro/internal/machine"
	"repro/internal/mem"
)

// Event describes a triggered watchpoint.
type Event struct {
	Addr  uint64
	Write bool
	Proc  int
	Cycle uint64
}

// Handler observes watchpoint hits.
type Handler func(Event)

// HandlerCycles is the charged cost of a watchpoint trap.
const HandlerCycles = 40

// Watcher manages watchpoints over one machine. Watched-line bookkeeping
// is program-level (the handler table), while the detection itself is the
// hardware UFO bits — so unwatched accesses cost nothing.
type Watcher struct {
	m *machine.Machine

	watched map[uint64]watchKind // by line
	handler Handler
	hits    uint64
}

type watchKind struct{ read, write bool }

// New creates a watcher with the given hit handler.
func New(m *machine.Machine, h Handler) *Watcher {
	return &Watcher{
		m:       m,
		watched: make(map[uint64]watchKind),
		handler: h,
	}
}

// Watch monitors the line containing addr. The installing processor pays
// the UFO bit cost.
func (w *Watcher) Watch(p *machine.Proc, addr uint64, onRead, onWrite bool) {
	line := mem.LineOf(addr)
	w.watched[line] = watchKind{read: onRead, write: onWrite}
	var bits mem.UFOBits
	if onRead {
		bits |= mem.UFOFaultOnRead
	}
	if onWrite {
		bits |= mem.UFOFaultOnWrite
	}
	p.SetUFO(mem.LineAddr(line), bits)
}

// Unwatch removes monitoring from the line containing addr.
func (w *Watcher) Unwatch(p *machine.Proc, addr uint64) {
	line := mem.LineOf(addr)
	delete(w.watched, line)
	p.SetUFO(mem.LineAddr(line), mem.UFONone)
}

// Hits reports how many watchpoints have fired.
func (w *Watcher) Hits() uint64 { return w.hits }

// Load performs a monitored read: on a watched line the handler runs
// first (charged), then the access completes under masked faults.
func (w *Watcher) Load(p *machine.Proc, addr uint64) uint64 {
	for {
		v, out := p.NTRead(addr)
		switch out.Kind {
		case machine.OK:
			return v
		case machine.UFOFault:
			w.trap(p, addr, false)
			p.SetUFOEnabled(false)
			v, out = p.NTRead(addr)
			p.SetUFOEnabled(true)
			if out.Kind != machine.OK {
				panic("watch: masked read failed: " + out.Kind.String())
			}
			return v
		default:
			panic("watch: unexpected read outcome " + out.Kind.String())
		}
	}
}

// Store performs a monitored write.
func (w *Watcher) Store(p *machine.Proc, addr, val uint64) {
	for {
		out := p.NTWrite(addr, val)
		switch out.Kind {
		case machine.OK:
			return
		case machine.UFOFault:
			w.trap(p, addr, true)
			p.SetUFOEnabled(false)
			out = p.NTWrite(addr, val)
			p.SetUFOEnabled(true)
			if out.Kind != machine.OK {
				panic("watch: masked write failed: " + out.Kind.String())
			}
			return
		default:
			panic("watch: unexpected write outcome " + out.Kind.String())
		}
	}
}

func (w *Watcher) trap(p *machine.Proc, addr uint64, write bool) {
	w.hits++
	p.Elapse(HandlerCycles)
	if w.handler != nil {
		w.handler(Event{Addr: addr, Write: write, Proc: p.ID(), Cycle: p.Now()})
	}
}
