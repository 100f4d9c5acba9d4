package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// HWTx is the architectural state of an in-flight hardware transaction.
// Its read and write sets are the SR/SW bits of the paper: the owner's
// bit in the Readers and Writers masks of the directory's per-line
// records (there, not in the cache array, so the unbounded HTM shares the
// implementation). The transaction keeps only the lines whose bit it
// holds, each with its record, to clear them in O(footprint) without
// looking a record up again, and the speculative store buffer that stands
// in for speculatively-dirty cache lines.
type HWTx struct {
	Age     uint64
	Bounded bool        // true for BTM (L1-limited), false for the unbounded HTM
	Spec    mem.WordLog // speculative word values

	owner  *Proc
	reads  []heldLine // lines whose Readers bit this transaction holds, each once
	writes []heldLine // likewise for Writers

	pendingAbort AbortReason
}

// heldLine is a line a transaction has marked, with its record: a view
// that stays valid until the memory is Reset, so commit, kill and Release
// empty the lists before then.
type heldLine struct {
	line uint64
	rec  cache.Line
}

// Footprint returns the number of distinct lines read or written.
func (t *HWTx) Footprint() int {
	n, id := len(t.reads), t.owner.ID()
	for _, h := range t.writes {
		if !h.rec.Readers().Has(id) {
			n++
		}
	}
	return n
}

// Reads reports whether line is in the transaction's read set.
func (t *HWTx) Reads(line uint64) bool {
	return t.owner.m.dir.Line(line).Readers().Has(t.owner.ID())
}

// Writes reports whether line is in the transaction's write set.
func (t *HWTx) Writes(line uint64) bool {
	return t.owner.m.dir.Line(line).Writers().Has(t.owner.ID())
}

// mark sets this transaction's SR or SW bit in rec, the record for line.
func (t *HWTx) mark(line uint64, rec cache.Line, write bool) {
	set, list := rec.Readers(), &t.reads
	if write {
		set, list = rec.Writers(), &t.writes
	}
	if id := t.owner.ID(); !set.Has(id) {
		set.Set(id)
		*list = append(*list, heldLine{line, rec})
	}
}

// release flash-clears every SR/SW bit and the store buffer, at commit
// and at kill: a bit left behind in a shared record would be a phantom
// conflict for everyone else.
func (t *HWTx) release() {
	id := t.owner.ID()
	for _, h := range t.reads {
		h.rec.Readers().Clear(id)
	}
	for _, h := range t.writes {
		h.rec.Writers().Clear(id)
	}
	t.reads, t.writes = t.reads[:0], t.writes[:0]
	t.Spec.Reset()
}

// Proc is one simulated processor plus its private L1 and transactional
// state. All methods must be called from the processor's own workload,
// except where noted. One processor holds the execution
// token at a time, so every method runs atomically at this processor's
// (cycle, id) slot of the deterministic schedule.
type Proc struct {
	m   *Machine
	sp  *sim.Proc
	l1  *cache.L1
	ufo bool // UFO faults enabled for the current thread

	hw    *HWTx // in-flight hardware transaction, or nil
	hwBuf *HWTx // pooled transaction state reused across BeginHW calls

	// Software-transaction identity, published by the STM layer so the
	// machine can classify STM-vs-HTM conflicts (Section 5.4's ">99%
	// STM-older" measurement).
	stmAge uint64
	inSTM  bool
	rng    sim.Rand
	tick   func() // timerInterrupt, bound once: the engine's interrupt hook
	// ContextOf's contexts, one per type; ctxBuf backs the first two.
	ctxs   []any
	ctxBuf [2]any

	// Backing store of the one scratch processor set (others).
	mask [cache.MaxProcs / 64]uint64
}

// others returns, in p's scratch mask, every member of a or b (nil for
// none) but p itself: the parties to whatever p is about to do to a
// line. The loops that walk it kill and invalidate, which clears bits in
// the very record a and b view; the copy is what keeps the walk safe.
// It is good until the next call.
func (p *Proc) others(a, b cache.ProcSet) cache.ProcSet {
	s := cache.ProcSet(p.mask[:len(a)])
	copy(s, a)
	s.Or(b)
	s.Clear(p.ID())
	return s
}

// ID returns the processor number.
func (p *Proc) ID() int { return p.sp.ID() }

// Machine returns the owning machine. Mid-run, only the running
// processor may touch the shared fields reached through it (Mem, Count,
// NextAge).
func (p *Proc) Machine() *Machine { return p.m }

// Now returns the processor's local clock.
func (p *Proc) Now() uint64 { return p.sp.Now() }

// Elapse charges pure-compute cycles. It is the scheduling point: the
// deterministic (cycle, id) order is defined over the clock values
// Elapse produces.
func (p *Proc) Elapse(c uint64) { p.sp.Elapse(c) }

// ElapseUntil advances the processor's local clock to at least cycle,
// yielding to the engine exactly like Elapse. It is the schedule-replay
// hook: the litmus executor pins every program operation to an absolute
// slot time, so one enumerated interleaving replays identically under
// both the reference and the run-ahead scheduler. A target at or before
// the current clock is a no-op — a re-executed (aborted) transaction
// body runs its remaining operations back to back.
func (p *Proc) ElapseUntil(cycle uint64) {
	if now := p.sp.Now(); cycle > now {
		p.sp.Elapse(cycle - now)
	}
}

// Block deschedules the processor until another wakes it; the engine
// orders the block at this processor's (cycle, id) schedule slot.
func (p *Proc) Block() { p.sp.Block() }

// Wake readies a blocked processor (callable from any running
// processor); the engine orders the wake deterministically at the
// waker's schedule slot.
func (p *Proc) Wake(q *Proc) { p.sp.Wake(q.sp) }

// SetNote attaches a diagnostic label shown in engine dumps; it never
// affects the schedule and allocates nothing.
func (p *Proc) SetNote(label string) { p.sp.SetNote(label) }

// SetNoteN is SetNote with one integer, shown as label=n.
func (p *Proc) SetNoteN(label string, n uint64) { p.sp.SetNoteN(label, n) }

// Rand returns a per-processor deterministic random stream, seeded from
// Params.Seed and the processor ID, so its values do not depend on the
// schedule.
func (p *Proc) Rand() *sim.Rand { return &p.rng }

// L1 exposes the occupancy model (for tests and statistics). Mid-run it
// is mutated only by this processor's own accesses and by invalidations
// from the running processor.
func (p *Proc) L1() *cache.L1 { return p.l1 }

// --- UFO thread state (Table 2: enable_ufo / disable_ufo) ---

// SetUFOEnabled turns UFO faulting on or off for this thread; only this
// processor's accesses consult the flag.
func (p *Proc) SetUFOEnabled(on bool) { p.ufo = on }

// UFOEnabled reports whether UFO faults are delivered to this thread.
func (p *Proc) UFOEnabled() bool { return p.ufo }

// SetSTM publishes that this processor is (or is no longer) executing a
// software transaction of the given age. Other processors read this
// state when classifying conflicts.
func (p *Proc) SetSTM(active bool, age uint64) {
	p.inSTM = active
	p.stmAge = age
}

// --- Hardware transactions ---

// HW returns the in-flight hardware transaction, or nil.
func (p *Proc) HW() *HWTx { return p.hw }

// BeginHW starts a hardware transaction with the given age. bounded
// selects BTM semantics (L1-capacity-limited) versus the idealized
// unbounded HTM. Nesting is the caller's concern (BTM flattens).
func (p *Proc) BeginHW(age uint64, bounded bool) {
	if p.hw != nil {
		panic("machine: BeginHW with transaction already active")
	}
	// Transactions are frequent and short; reuse one HWTx (its line lists
	// and its store buffer, which keeps its storage across resets) per
	// processor instead of allocating fresh state on every begin.
	t := p.hwBuf
	if t == nil {
		t = &HWTx{owner: p}
		p.hwBuf = t
	}
	if len(t.reads)+len(t.writes)+t.Spec.Len() != 0 {
		panic("machine: BeginHW found speculative state the last commit or kill left behind")
	}
	t.Age, t.Bounded = age, bounded
	t.pendingAbort = AbortNone
	p.hw = t
}

// CommitHW atomically publishes the transaction's speculative writes and
// ends it. If an abort was already pending the transaction is aborted
// instead and the outcome says so. The publish is atomic at this
// processor's schedule slot.
func (p *Proc) CommitHW() Outcome {
	t := p.hw
	if t == nil {
		panic("machine: CommitHW with no transaction")
	}
	if t.pendingAbort != AbortNone {
		return p.consumeAbort()
	}
	t.Spec.Words(p.m.Mem.Write64)
	if p.m.out.want.Has(TraceMemWrite) {
		t.Spec.Words(p.wrote)
	}
	p.m.Count.HWFootprint.Observe(uint64(t.Footprint()))
	t.release()
	p.hw = nil
	return okOutcome
}

// RecordSWFootprint lets software TMs feed their committed transactions'
// footprints into the machine-wide histogram.
func (p *Proc) RecordSWFootprint(lines int) {
	p.m.Count.SWFootprint.Observe(uint64(lines))
}

// AbortHW aborts the in-flight transaction (btm_abort) and returns the
// reason the hardware retired, which is a peer's if its kill was already
// pending; speculative state is discarded and the caller unwinds. The
// who-aborted-whom edge names aggressor over addr (hasAddr): -1 for a
// self-inflicted abort (explicit, syscall, nesting), or another processor
// when a software barrier detects a conflict on a software transaction's
// behalf (HyTM's otable check, PhTM's phase counter, SLE's held lock
// word): the abort is architecturally self-inflicted, but the contention
// belongs to the peer.
func (p *Proc) AbortHW(reason AbortReason, aggressor int, addr uint64, hasAddr bool) AbortReason {
	if p.hw == nil {
		panic("machine: AbortHW with no transaction")
	}
	p.killHWFrom(aggressor, p, reason, addr, hasAddr)
	return p.consumeAbort().Reason
}

// RecordSWKill puts on the event stream that p's software transaction
// killed victim's software transaction over the line containing addr.
// The STM layers call this from their kill paths; the machine itself
// only sees SW conflicts indirectly.
func (p *Proc) RecordSWKill(victim *Proc, reason AbortReason, addr uint64, hasAddr bool) {
	p.conflict(p.ID(), victim, reason, addr, hasAddr, FlagSW)
}

// RecordSWAbortBy notes that p's own software transaction aborted because
// of aggressor (-1 when unknown, e.g. a TL2 stripe whose last writer has
// long released it). Used by STMs whose victims detect conflicts
// themselves rather than being killed.
func (p *Proc) RecordSWAbortBy(aggressor int, reason AbortReason, addr uint64, hasAddr bool) {
	p.conflict(aggressor, p, reason, addr, hasAddr, FlagSW)
}

// conflict emits the one who-aborted-whom event per kill, stamped with
// p's clock: p is always the processor performing the kill or detecting
// the conflict. hasAddr states whether addr names a real conflicting
// address — address 0 is a legal simulated address, so absence is
// tracked explicitly.
func (p *Proc) conflict(aggressor int, victim *Proc, reason AbortReason, addr uint64, hasAddr bool, flags TraceFlags) {
	if hasAddr {
		flags |= FlagAddr
	}
	p.emit(TraceEvent{Kind: TraceConflict, Proc: victim.ID(), Peer: aggressor, Reason: reason, Addr: addr, Flags: flags})
}

// consumeAbort retires a pending abort: it records statistics, clears the
// transaction, and returns the HWAborted outcome.
func (p *Proc) consumeAbort() Outcome {
	reason := p.hw.pendingAbort
	p.m.Count.HWAbortsByReason[reason]++
	p.hw = nil
	return Outcome{Kind: HWAborted, Reason: reason}
}

// killHW flash-clears victim's transactional state and records the abort
// reason for delivery at the victim's next transactional operation. p is
// the processor performing the conflicting action (may equal victim).
func (p *Proc) killHW(victim *Proc, reason AbortReason, addr uint64, hasAddr bool) {
	p.killHWFrom(p.ID(), victim, reason, addr, hasAddr)
}

// killHWFrom is killHW with an explicit aggressor processor ID for the
// attribution edge. p is always the processor performing the kill (whose
// clock timestamps the edge); aggressor may name another processor when a
// software barrier detects a conflict on that processor's behalf
// (AbortHW), or -1 for self-attribution.
func (p *Proc) killHWFrom(aggressor int, victim *Proc, reason AbortReason, addr uint64, hasAddr bool) {
	t := victim.hw
	if t == nil || t.pendingAbort != AbortNone {
		return
	}
	if aggressor < 0 {
		aggressor = victim.ID()
	}
	p.conflict(aggressor, victim, reason, addr, hasAddr, 0)
	t.pendingAbort = reason
	// Speculatively written lines are invalidated on abort (they were
	// never globally visible), losing the copy and the SW bit in the
	// record the list holds; the read set simply loses its SR bits.
	id := victim.ID()
	for _, h := range t.writes {
		victim.l1.Invalidate(h.line)
		h.rec.Sharers().Clear(id)
		h.rec.Writers().Clear(id)
	}
	t.writes = t.writes[:0]
	t.release()
}

// timerInterrupt models the scheduling-timer quantum: an in-flight
// hardware transaction cannot survive an interrupt (Section 3.1).
func (p *Proc) timerInterrupt() {
	if p.hw != nil {
		p.killHW(p, AbortInterrupt, 0, false)
	}
}

// checkPending delivers a pending asynchronous abort, if any.
func (p *Proc) checkPending() (Outcome, bool) {
	if p.hw != nil && p.hw.pendingAbort != AbortNone {
		return p.consumeAbort(), true
	}
	return okOutcome, false
}

// --- The memory operation core ---

// access performs the full architectural sequence for one memory
// operation: UFO protection check, conflict detection and resolution
// against other processors' hardware transactions, and cache/coherence
// timing. tx marks the access as part of p's hardware transaction. When
// the outcome is OK, word is the committed word at addr, for the caller
// to load or store at this same schedule slot.
func (p *Proc) access(addr uint64, write, tx bool) (word *uint64, _ Outcome) {
	p.m.Mem.CheckAddr(addr) // before the line's block is indexed by it
	if tx {
		if out, aborted := p.checkPending(); aborted {
			return nil, out
		}
		if p.hw == nil {
			panic("machine: transactional access with no transaction")
		}
	} else if p.hw != nil {
		// BTM has no non-transactional loads/stores (paper, footnote 9).
		panic("machine: non-transactional access inside a hardware transaction")
	}

	// The line's block, fetched once, holds the word, the UFO bits and
	// the directory state; it never moves, so it outlives charge's yield.
	line := mem.LineOf(addr)
	word, flat := p.m.Mem.Block(addr)
	rec := cache.Line(flat)

	// 1. UFO protection check: the fault is raised before the access
	// completes, so a faulting access has no architectural effect.
	if p.ufo && mem.UFOOf(rec).Faults(write) {
		p.m.Count.UFOFaults++
		p.emit(TraceEvent{Kind: TraceUFOFault, Proc: p.ID(), Addr: addr, Flags: FlagAddr})
		p.sp.Elapse(L1HitCycles) // the tag check that detected the fault
		return nil, Outcome{Kind: UFOFault}
	}

	// 2. Conflict detection against other processors' HW transactions,
	// for a line some transaction holds at all (nearly every access finds
	// none and skips it).
	if rec.Held(write) {
		if out, resolved := p.resolveConflicts(line, rec, write, tx); !resolved {
			return nil, out
		}
	}

	// 3. Track the transactional footprint before the timing charge: the
	// coherence acquisition and the SR/SW-bit update are one atomic
	// hardware action, and the charge below may yield to other processors
	// whose conflicting actions must observe the updated footprint.
	if tx {
		p.hw.mark(line, rec, write)
	}

	// 4. Cache and coherence timing. This can self-abort (set overflow),
	// race with a timer interrupt, or lose the line to a concurrent
	// conflictor, so pending aborts are delivered before data moves. A hit
	// in the most recently used way that invalidates no one is the L1 hit
	// charge would charge, without its scan.
	yields := p.sp.Yields()
	if (!write || !rec.Sharers().AnyBut(p.ID())) && p.l1.HitMRU(line) {
		p.sp.Elapse(L1HitCycles)
	} else {
		p.charge(line, rec, write)
	}
	if tx {
		if out, aborted := p.checkPending(); aborted {
			return nil, out
		}
		return word, okOutcome
	}
	if p.sp.Yields() == yields {
		// No other processor ran since step 2 killed every holder the
		// access conflicts with, and neither the charge nor the timer
		// interrupt (this processor's transaction only: it has none)
		// touches another's SR/SW bits or a UFO bit, so steps 5 and 6
		// would find nothing (DESIGN.md §55).
		return word, okOutcome
	}
	// 5. Completion-time conflict re-check: the charge above yielded, and a
	// hardware transaction may have touched this line while the miss was in
	// flight — its footprint was empty at the issue-time check, but this
	// access's data lands now. In hardware the store's invalidation (or the
	// load's downgrade) snoops the SR/SW bits when the coherence transaction
	// completes, so such a transaction is killed; without the re-check a
	// hardware transaction could read a line mid-way through a
	// non-transactional store's miss and commit having seen both the old
	// and the new value. Victims killed at issue already carry a pending
	// abort and are skipped.
	if rec.Held(write) {
		p.resolveConflicts(line, rec, write, false)
	}
	if p.ufo && mem.UFOOf(rec).Faults(write) {
		// 6. Protection re-check, same window: a software transaction may
		// have installed UFO protection on (and eagerly written) this line
		// during the miss. In hardware the permission check rides the
		// coherence response, so the access faults; without this re-check a
		// non-transactional reader could return the transaction's
		// uncommitted value — a strong-atomicity hole the litmus suite
		// catches. The timing was charged but no data moves; the handler's
		// retry will hit in L1.
		p.m.Count.UFOFaults++
		p.emit(TraceEvent{Kind: TraceUFOFault, Proc: p.ID(), Addr: addr, Flags: FlagAddr})
		return nil, Outcome{Kind: UFOFault}
	}
	return word, okOutcome
}

// resolveConflicts applies the machine's contention policy to every
// hardware transaction whose footprint conflicts with this access. The
// line's record nominates them — a set bit means a live, un-killed
// transaction — and they are visited in ascending processor order.
// resolved=false means the access must not proceed (NACK or own abort).
// The caller has found a holder (Line.Held).
func (p *Proc) resolveConflicts(line uint64, rec cache.Line, write, tx bool) (Outcome, bool) {
	readers := cache.ProcSet(nil)
	if write { // readers conflict with a write only
		readers = rec.Readers()
	}
	victims := p.others(rec.Writers(), readers)
	if !tx {
		// A non-transactional (or STM) access always serializes against
		// hardware transactions by aborting them: HTMs are strongly atomic
		// through coherence. STM-vs-HTM conflicts are also classified for
		// the Section 5.4 measurement.
		for i := victims.Next(0); i >= 0; i = victims.Next(i + 1) {
			q := p.m.procs[i]
			p.classifySTMConflict(q)
			p.killHW(q, AbortNonTConflict, mem.LineAddr(line), true)
		}
		return okOutcome, true
	}
	// HW-vs-HW: age-ordered resolution (or requester-wins for Figure 8).
	if p.m.HWPolicy == AgeOrdered {
		for i := victims.Next(0); i >= 0; i = victims.Next(i + 1) {
			if p.m.procs[i].hw.Age < p.hw.Age {
				p.m.Count.Nacks++
				p.emit(TraceEvent{Kind: TraceNack, Proc: p.ID(), Addr: mem.LineAddr(line), Age: p.hw.Age, Flags: FlagAddr | FlagAge})
				return Outcome{Kind: Nacked}, false
			}
		}
	}
	for i := victims.Next(0); i >= 0; i = victims.Next(i + 1) {
		p.killHW(p.m.procs[i], AbortConflict, mem.LineAddr(line), true)
	}
	return okOutcome, true
}

// classifySTMConflict counts, for the Section 5.4 measurement, which
// side was older when p's software transaction kills q's hardware one.
func (p *Proc) classifySTMConflict(q *Proc) {
	if !p.inSTM {
		return
	}
	if p.stmAge < q.hw.Age {
		p.m.Count.ConflictSTMOlder++
	} else {
		p.m.Count.ConflictHTMOlder++
	}
}

// invalidateOthers removes every cached copy of line but p's own and
// reports whether there was one.
func (p *Proc) invalidateOthers(line uint64, rec cache.Line) bool {
	if !rec.Sharers().AnyBut(p.ID()) {
		return false // the common write hit, and most installs
	}
	others := p.others(rec.Sharers(), nil)
	for i := others.Next(0); i >= 0; i = others.Next(i + 1) {
		p.m.procs[i].l1.Invalidate(line)
		rec.Sharers().Clear(i)
	}
	return true
}

// Table 4's latencies (DESIGN.md §4). The paper fixes one machine, so
// these are constants, not Params.
const (
	// L1HitCycles is an L1 hit, and the tag check of a faulting access.
	L1HitCycles uint64 = 1
	// L2HitCycles is an L1 miss that the shared L2 serves. No L2 capacity
	// is modelled: a line fetched once is an L2 hit ever after.
	L2HitCycles uint64 = 20
	// MemCycles is a line's first fetch, from memory.
	MemCycles uint64 = 300
	// TransferCycles is a cache-to-cache transfer, and the exclusive-
	// permission upgrade that invalidates other copies.
	TransferCycles uint64 = 60
	// NackCycles is the delay before a NACKed hardware access retries.
	NackCycles uint64 = 20
	// UFOOpCycles is one set_ufo_bits instruction, before its coherence
	// traffic.
	UFOOpCycles uint64 = 6
)

// charge models the latency of the reference and maintains L1 occupancy
// and the directory. A write invalidates all other cached copies.
func (p *Proc) charge(line uint64, rec cache.Line, write bool) {
	hit, victim, evicted := p.l1.Touch(line)
	cost := L1HitCycles
	if !hit {
		id := p.ID()
		if !rec.Warm() {
			rec.SetWarm()
			cost += MemCycles
		} else if rec.Sharers().AnyBut(id) {
			cost += TransferCycles
		} else {
			cost += L2HitCycles
		}
		rec.Sharers().Set(id)
		if evicted {
			vrec := p.m.dir.Line(victim)
			vrec.Sharers().Clear(id)
			if p.hw != nil && p.hw.Bounded && (vrec.Readers().Has(id) || vrec.Writers().Has(id)) {
				// Evicting a transactional line overflows BTM.
				p.killHW(p, AbortOverflow, mem.LineAddr(victim), true)
			}
		}
	}
	if write && p.invalidateOthers(line, rec) {
		cost += TransferCycles // exclusive-permission upgrade
	}
	p.sp.Elapse(cost)
}

// --- Data-path operations ---

// TxAccess performs a transactional load or store: conflict detection,
// footprint update and the data's move are atomic at this processor's
// schedule slot. A load returns the word, from the store buffer if this
// transaction wrote it; a store goes into the buffer.
func (p *Proc) TxAccess(addr uint64, write bool, val uint64) (uint64, Outcome) {
	word, out := p.access(addr, write, true)
	switch {
	case out.Kind != OK:
		return 0, out
	case write:
		p.hw.Spec.Put(addr, val)
		return 0, okOutcome
	}
	// Only a transaction that has written can have buffered the word.
	if p.hw.Spec.Len() != 0 {
		if v, ok := p.hw.Spec.Get(addr); ok {
			return v, okOutcome
		}
	}
	return *word, okOutcome
}

// NTAccess performs a non-transactional load or store.
func (p *Proc) NTAccess(addr uint64, write bool, val uint64) (uint64, Outcome) {
	word, out := p.access(addr, write, false)
	switch {
	case out.Kind != OK:
		return 0, out
	case !write:
		return *word, okOutcome
	}
	*word = val
	if p.m.out.want.Has(TraceMemWrite) {
		p.wrote(addr, val)
	}
	return 0, okOutcome
}

// TxRead, TxWrite, NTRead and NTWrite are TxAccess and NTAccess for one
// direction each, kept for the benchmark module's layer-micro entries.
func (p *Proc) TxRead(addr uint64) (uint64, Outcome) { return p.TxAccess(addr, false, 0) }
func (p *Proc) TxWrite(addr, val uint64) Outcome {
	_, out := p.TxAccess(addr, true, val)
	return out
}
func (p *Proc) NTRead(addr uint64) (uint64, Outcome) { return p.NTAccess(addr, false, 0) }
func (p *Proc) NTWrite(addr, val uint64) Outcome {
	_, out := p.NTAccess(addr, true, val)
	return out
}

// wrote puts one store that reached memory on the event stream.
func (p *Proc) wrote(addr, val uint64) {
	p.emit(TraceEvent{Kind: TraceMemWrite, Proc: p.ID(), Addr: addr, Arg: val, Flags: FlagAddr})
}

// --- UFO bit operations (Table 2) ---

// SetUFO installs protection bits on the line containing addr
// (set_ufo_bits). Because the bits must stay coherent, the instruction
// acquires exclusive permission, invalidating every other cached copy —
// and thereby killing any hardware transaction whose footprint includes
// the line (the BTM/UFO interaction of Section 4.3). Under the
// TrueConflictUFOKills limit study only genuinely conflicting
// transactions are killed.
func (p *Proc) SetUFO(addr uint64, bits mem.UFOBits) {
	p.m.Mem.CheckAddr(addr)
	line := mem.LineOf(addr)
	_, flat := p.m.Mem.Block(addr)
	rec := cache.Line(flat)
	old := mem.UFOOf(rec)
	cost := UFOOpCycles

	// The paper's two proposed mitigations for false UFO/BTM conflicts:
	// a pure downgrade under lazy clearing, or a fault-on-write-only
	// install under owner-state setting, need not blow every other copy
	// away. (Section 4.3: "setting UFO bits in the owner state" / "lazily
	// clearing UFO bits for read-mostly data".)
	downgrade := bits&^old == 0 // no new protection added
	fowOnly := bits&^old == mem.UFOFaultOnWrite
	if p.m.LazyUFOClear && downgrade {
		mem.SetUFOOf(rec, bits)
		p.sp.Elapse(cost)
		return
	}
	sharedInstall := p.m.OwnerStateUFO && fowOnly

	// Exclusive permission: invalidate all other copies (unless the
	// owner-state optimization keeps read-sharers valid).
	if !sharedInstall && p.invalidateOthers(line, rec) {
		cost += TransferCycles
	}
	// Kill hardware transactions holding the line, in ascending order.
	holders := p.others(rec.Readers(), rec.Writers())
	for i := holders.Next(0); i >= 0; i = holders.Next(i + 1) {
		q := p.m.procs[i]
		trueConflict := rec.Writers().Has(i) || bits&mem.UFOFaultOnRead != 0
		if trueConflict {
			p.m.Count.UFOKillsTrue++
		} else {
			p.m.Count.UFOKillsFalse++
			if p.m.TrueConflictUFOKills {
				continue // limit study: spare false conflicts
			}
			if sharedInstall {
				continue // owner-state install: readers survive
			}
		}
		p.classifySTMConflict(q)
		p.killHW(q, AbortUFOKill, mem.LineAddr(line), true)
	}
	mem.SetUFOOf(rec, bits)
	p.emit(TraceEvent{Kind: TraceUFOSet, Proc: p.ID(), Addr: addr, Flags: FlagAddr})
	p.sp.Elapse(cost)
}

// String implements fmt.Stringer for diagnostics.
func (p *Proc) String() string {
	return fmt.Sprintf("proc%d@%d", p.ID(), p.Now())
}
