package stamp

import (
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// IntruderDecodeCycles is the compute charged to decode one fragment,
// between popping it and inserting it.
const IntruderDecodeCycles = 40

// Intruder models STAMP's network-intrusion-detection pipeline (an
// extension beyond the paper's three benchmarks). Packet fragments
// arrive in a shared transactional queue; worker threads pop a fragment,
// insert it into the per-flow reassembly state (a shared hash of
// per-flow lists), and when a flow completes, remove it and scan it.
// The queue head is a serialization hotspot and the reassembly hash sees
// medium contention — STAMP's "moderate transactions, moderate
// contention" point.
type Intruder struct {
	Flows        int
	FragsPerFlow int
	Seed         uint64

	queue     txlib.Queue
	flows     txlib.Hash // flowID → reassembly list head
	doneCount uint64     // simulated address: completed flows
	arenas    []*txlib.Arena
	scanned   []int // per-thread flows scanned (validation)
	frags     []uint64
}

// NewIntruder returns a scaled configuration.
func NewIntruder(flows, fragsPerFlow int) *Intruder {
	return &Intruder{Flows: flows, FragsPerFlow: fragsPerFlow, Seed: 61}
}

// fragment encoding: flowID*256 + fragment index.
func (w *Intruder) flowOf(frag uint64) uint64  { return frag / 256 }
func (w *Intruder) indexOf(frag uint64) uint64 { return frag % 256 }

// Init implements Workload.
func (w *Intruder) Init(m *machine.Machine, threads int) {
	d := txlib.Direct{M: m}
	total := w.Flows * w.FragsPerFlow
	setupA := txlib.NewArena(m, nil, uint64(total+1024)*64+1<<14)
	w.queue = txlib.NewQueue(d, setupA, uint64(total)) // pre-sized: producers never block
	w.flows = txlib.NewHash(d, setupA, 1<<8)
	w.doneCount = m.Mem.Sbrk(64)

	// Pre-shuffle all fragments into the queue (the "capture" phase is
	// sequential in STAMP too).
	r := sim.NewRand(w.Seed)
	w.frags = make([]uint64, 0, total)
	for f := 1; f <= w.Flows; f++ {
		for i := 0; i < w.FragsPerFlow; i++ {
			w.frags = append(w.frags, uint64(f)*256+uint64(i))
		}
	}
	for i := len(w.frags) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		w.frags[i], w.frags[j] = w.frags[j], w.frags[i]
	}
	for _, frag := range w.frags {
		// Direct pushes via the queue layout (setup time).
		tail := d.Load(w.queueTailAddr())
		d.Store(w.queueSlotAddr(tail), frag)
		d.Store(w.queueTailAddr(), tail+1)
	}
	w.arenas = make([]*txlib.Arena, threads)
	for i := range w.arenas {
		w.arenas[i] = txlib.NewArena(m, nil, uint64(total/threads+32)*2*64+1<<12)
	}
	w.scanned = make([]int, threads)
}

// queue internals for setup (the Queue type's fields are package-local
// to txlib; recompute the addresses from its accessors).
func (w *Intruder) queueTailAddr() uint64 { return w.queue.TailAddr() }
func (w *Intruder) queueSlotAddr(i uint64) uint64 {
	return w.queue.SlotAddr(i)
}

// Thread implements Workload: pop-decode-insert-maybe-scan until the
// queue drains.
func (w *Intruder) Thread(i int, ex tm.Exec) {
	a := w.arenas[i]
	scanned := 0
	for {
		var frag uint64
		var ok bool
		ex.Atomic(func(tx tm.Tx) {
			frag, ok = w.queue.TryPop(tx)
		})
		if !ok {
			break // drained
		}
		ex.Proc().Elapse(IntruderDecodeCycles)
		flow := w.flowOf(frag)
		complete := false
		ex.Atomic(func(tx tm.Tx) {
			complete = false
			listHead, have := w.flows.Get(tx, flow)
			if !have {
				l := txlib.NewList(tx, a)
				listHead = l.Head()
				w.flows.Insert(tx, a, flow, listHead)
			}
			l := txlib.ListAt(listHead)
			l.Insert(tx, a, w.indexOf(frag), frag)
			if l.Len(tx) == w.FragsPerFlow {
				// Flow complete: claim it for scanning.
				w.flows.Remove(tx, flow)
				tx.Store(w.doneCount, tx.Load(w.doneCount)+1)
				complete = true
			}
		})
		if complete {
			ex.Proc().Elapse(uint64(60 * w.FragsPerFlow)) // signature scan
			scanned++
		}
	}
	w.scanned[i] = scanned
}

// Validate implements Workload: every flow completes exactly once, the
// reassembly table drains, and the scans partition the flows.
func (w *Intruder) Validate(m *machine.Machine) error {
	d := txlib.Direct{M: m}
	if got := d.Load(w.doneCount); got != uint64(w.Flows) {
		return validErr("intruder", "completed flows = %d, want %d", got, w.Flows)
	}
	if got := w.flows.Len(d); got != 0 {
		return validErr("intruder", "reassembly table retains %d flows", got)
	}
	total := 0
	for _, s := range w.scanned {
		total += s
	}
	if total != w.Flows {
		return validErr("intruder", "scanned %d flows, want %d", total, w.Flows)
	}
	if w.queue.Len(d) != 0 {
		return validErr("intruder", "queue retains %d fragments", w.queue.Len(d))
	}
	return nil
}
