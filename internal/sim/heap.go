package sim

// The ready heap: a binary min-heap over (clock, id) whose entries carry
// the clock inline, so a sift compares contiguous memory and reads
// another processor's struct only to break a clock tie. Keys are
// immutable while a processor is in the heap — only the executing
// processor (never in the heap) advances its clock, and Wake bumps a
// sleeper's clock before pushing — so push, pop and replace-top are the
// only operations.

// readyEntry is one heap slot: a processor and the clock it waits at.
type readyEntry struct {
	now uint64
	p   *Proc
}

// before reports whether a precedes b in the engine's total scheduling
// order.
func (a readyEntry) before(b readyEntry) bool {
	return a.now < b.now || (a.now == b.now && a.p.id < b.p.id)
}

func (e *Engine) heapPush(p *Proc) {
	x, i := readyEntry{p.now, p}, len(e.ready)
	e.ready = append(e.ready, x)
	h := e.ready
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

func (e *Engine) heapPop() *Proc {
	n := len(e.ready) - 1
	if n < 0 {
		return nil
	}
	last := e.ready[n]
	e.ready = e.ready[:n]
	if n == 0 {
		return last.p
	}
	return e.replaceTop(last)
}

// replaceTop takes the minimum out of a non-empty heap and puts x in,
// with one sift.
func (e *Engine) replaceTop(x readyEntry) *Proc {
	h, i := e.ready, 0
	top := h[0].p
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(x) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = x
	return top
}
