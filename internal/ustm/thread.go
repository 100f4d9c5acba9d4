package ustm

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
)

type status uint8

const (
	statusIdle status = iota
	statusRunning
	statusRetrying
)

// Thread is the per-processor USTM transaction context (the paper's
// per-thread transactional status structure, including the log). It is
// also the handle RunTx hands to transaction bodies.
type Thread struct {
	stm *STM
	p   *machine.Proc

	status status
	age    uint64
	killed bool
	// killer bookkeeping for the reissue-after-killer-retires policy.
	killer      *Thread
	killerEpoch uint64
	epoch       uint64 // bumps every time a transaction of ours ends

	undo  []undoRec
	owned []ownedRec
	// toWake lists the retrying transactions owed a wake-up once the
	// transaction on this processor ends — a software one, or a hardware
	// attempt of the UFO hybrid (WakeAtCommit).
	toWake      []*Thread
	active      []*Thread // resolveConflict's scratch: the owners in our way
	wakePending bool
	onCommit    []func()
	// nestSave stacks undo-log lengths at nest entry. Entries acquired
	// inside an aborted nest are retained until transaction end (lazy
	// release: conservative isolation is always safe), so a savepoint is
	// just an undo-log position.
	nestSave []int
}

var _ tm.Tx = (*Thread)(nil)

type undoRec struct {
	addr uint64
	old  uint64
}

type ownedRec struct {
	line  uint64
	write bool
}

// Begin starts a software transaction with the given age (ustm_begin):
// clear the log, record the sequence number, set the transaction state,
// and disable UFO faults so the transaction does not fault on its own
// protected data.
func (t *Thread) Begin(age uint64) {
	if t.status != statusIdle {
		panic("ustm: Begin with transaction already active")
	}
	t.status = statusRunning
	t.age = age
	t.killed = false
	t.killer = nil
	t.undo = t.undo[:0]
	t.owned = t.owned[:0]
	t.toWake = t.toWake[:0]
	t.wakePending = false
	t.onCommit = t.onCommit[:0]
	t.nestSave = t.nestSave[:0]
	t.p.SetSTM(true, age)
	t.p.SetUFOEnabled(false)
	t.p.RecordSW(machine.TraceSWBegin, machine.AbortNone, age)
	t.p.Elapse(BeginCycles)
}

// End commits the transaction (ustm_end): release ownership, wake any
// retrying transactions whose reads we overwrote, re-enable UFO faults,
// and discard the checkpoint. It reports false, and does nothing, if the
// transaction was killed after its last barrier: the caller rolls it
// back.
func (t *Thread) End() bool {
	if t.status != statusRunning {
		panic("ustm: End with no running transaction")
	}
	if t.killed {
		return false
	}
	t.p.RecordSWFootprint(len(t.owned))
	t.releaseAll()
	t.WakeOwed()
	t.p.Elapse(CommitCycles)
	t.p.RecordSW(machine.TraceSWCommit, machine.AbortNone, t.age)
	t.finish()
	t.runDeferred()
	return true
}

// OnCommit implements tm.Tx: a deferred side effect (Section 6) runs
// once, after this transaction commits, and is dropped if it aborts.
func (t *Thread) OnCommit(f func()) { t.onCommit = append(t.onCommit, f) }

// runDeferred executes and clears the deferred side effects.
func (t *Thread) runDeferred() {
	for _, f := range t.onCommit {
		f()
	}
	t.onCommit = t.onCommit[:0]
}

// Rollback aborts the transaction (ustm_abort): undo writes in reverse
// order, release ownership, and restore the pre-transaction state. The
// sw-abort event it emits carries reason, the cause RunTx aborted for.
func (t *Thread) Rollback(reason machine.AbortReason) {
	if t.status == statusIdle {
		panic("ustm: Rollback with no transaction")
	}
	t.undoTo(0)
	t.releaseAll()
	t.WakeOwed() // spurious wake-ups are safe; retriers re-check
	t.p.RecordSW(machine.TraceSWAbort, reason, t.age)
	t.p.Elapse(CommitCycles)
	t.finish()
}

// finish retires the transaction: status idle, epoch bumped, UFO faults
// re-enabled.
func (t *Thread) finish() {
	t.status = statusIdle
	t.epoch++
	t.p.SetSTM(false, 0)
	t.p.SetUFOEnabled(true)
}

// WaitForKiller stalls until the transaction that aborted us has retired,
// the paper's anti-livelock reissue policy. Call after Rollback.
func (t *Thread) WaitForKiller() {
	// Wait only while the killer is still running the transaction that
	// killed us; an idle or descheduled (retrying) killer has effectively
	// retired.
	for t.killer != nil && t.killer.status == statusRunning && t.killer.epoch == t.killerEpoch {
		t.p.Elapse(StallCycles)
	}
	t.killer = nil
}

// kill marks victim as aborted by t over the conflicting line. The victim
// notices at its next barrier (or stall poll) and unwinds; a blocked
// (retrying) victim is woken so it can unwind.
func (t *Thread) kill(victim *Thread, line uint64) {
	if victim.killed || victim.status == statusIdle {
		return
	}
	t.p.RecordSWKill(victim.p, machine.AbortConflict, mem.LineAddr(line), true)
	victim.killed = true
	victim.killer = t
	victim.killerEpoch = t.epoch
	if victim.status == statusRetrying {
		victim.wakePending = true
		t.p.Wake(victim.p)
	}
}

// checkKilled unwinds the transaction body if another transaction has
// signaled us to abort.
func (t *Thread) checkKilled() {
	if t.killed {
		tm.Unwind(machine.AbortConflict)
	}
}

// --- Barriers (Algorithm 1 / Algorithm 2) ---

// barrier acquires read or write permission for addr, stalling or
// killing conflictors per the age policy, and under strong atomicity
// installs fault-on-write protection (read) or fault-on-read and
// fault-on-write protection (write).
func (t *Thread) barrier(addr uint64, write bool) {
	if t.status != statusRunning {
		panic(fmt.Sprintf("ustm: barrier outside a transaction (status %d)", t.status))
	}
	line := mem.LineOf(addr)
	idx := t.stm.ot.index(line)
	r := t.stm.ot.row(idx)
	rowAddr := t.stm.ot.rowAddr(idx)
	for {
		t.checkKilled()
		// Inspect the row head (one otable memory reference plus the
		// barrier's fixed logic).
		t.ntReadMustOK(rowAddr)
		t.p.Elapse(BarrierCycles)
		if r.locked {
			t.stall()
			continue
		}
		e := r.find(line)
		switch {
		case e == nil:
			// Insert a fresh entry (compare&swap on the head; the chain
			// is locked while UFO bits are installed so that the bits can
			// never disagree with the otable — Algorithm 2). This is the
			// one way a row stops being blank: every other arm locks it
			// around an entry it already holds.
			t.stm.ot.Dirty(idx)
			r.locked = true
			t.ntWriteMustOK(rowAddr, 1)
			t.p.Elapse(CASCycles)
			t.stm.ot.insert(r, line, write, t)
			t.owned = append(t.owned, ownedRec{line: line, write: write})
			t.installUFO(line, write)
			r.locked = false
			return
		case e.hasOwner(t) && e.soleOwner(t):
			if write && !e.write {
				// Upgrade read → write permission.
				r.locked = true
				t.p.Elapse(CASCycles)
				e.write = true
				t.upgradeOwned(line)
				t.installUFO(line, true)
				r.locked = false
			}
			return
		case e.hasOwner(t) && !write && !e.write:
			// Already a reader among readers.
			return
		case e.hasOwner(t) && e.write:
			// Already the writer (write entries are exclusive, so being
			// an owner of a write entry means being the writer).
			return
		default:
			// Conflict: some other transaction owns the entry (or we are
			// a reader needing an upgrade past other readers).
			if !t.resolveConflict(r, e, write) {
				continue // stalled for an older conflictor; re-examine
			}
			// Conflictors killed and drained; re-examine the row.
		}
	}
}

// resolveConflict applies the age policy against e's other owners.
// It returns false if we stalled (caller re-examines), true once every
// other active owner has been killed and has released the entry.
func (t *Thread) resolveConflict(r *row, e *entry, write bool) bool {
	// A read-read sharing situation is not a conflict: join the readers.
	if !write && !e.write {
		r.locked = true
		e.pins++ // releaseAll ignores the row lock: e may leave its row here
		t.p.Elapse(CASCycles)
		e.pins--
		e.owners = append(e.owners, t)
		t.owned = append(t.owned, ownedRec{line: e.tag, write: false})
		// First reader installed protection already; joining readers
		// share it.
		r.locked = false
		return true
	}
	// Retrying owners do not block anyone: steal their ownership and
	// schedule their wake-up for our commit (Section 6).
	active := t.stealFromRetriers(e)
	if len(active) == 0 {
		// We are the one owner left (the loop will take the upgrade path),
		// or the entry is empty: remove it, and the retry of the outer
		// loop will insert fresh.
		if len(e.owners) == 0 {
			line := e.tag
			t.stm.ot.remove(r, e)
			if t.stm.cfg.StrongAtomicity {
				t.p.SetUFO(mem.LineAddr(line), mem.UFONone)
			}
		}
		return true
	}
	// Stall if any active conflictor is older.
	for _, o := range active {
		if o.age < t.age {
			t.stm.m.Count.SWStalls++
			t.stall()
			return false
		}
	}
	// We are the oldest: kill the younger conflictors and wait for each
	// to release its ownership (blocking STM: victims unwind themselves).
	for _, o := range active {
		t.kill(o, e.tag)
	}
	// Parked with e in hand, so pinned. Our own death ends the wait too;
	// the barrier unwinds on the way back, after the pin is dropped. A
	// victim killed first by another may rejoin e: kill it again (§37).
	e.pins++
	for _, o := range active {
		for e.hasOwner(o) && !t.killed {
			if !o.killed && o.status == statusRunning {
				t.kill(o, e.tag)
			}
			t.p.Elapse(StallCycles)
		}
	}
	e.pins--
	return true
}

// stealFromRetriers takes e's retrying owners off it, noting each for a
// wake-up at our commit, and returns the owners left other than t, in
// owner order (kills follow it). The result is scratch, good until the
// next call.
func (t *Thread) stealFromRetriers(e *entry) []*Thread {
	active, kept := t.active[:0], e.owners[:0]
	for _, o := range e.owners {
		if o != t && o.status == statusRetrying {
			t.noteWake(o)
			continue
		}
		kept = append(kept, o)
		if o != t {
			active = append(active, o)
		}
	}
	e.owners, t.active = kept, active
	return active
}

// stall charges one conflict-poll interval, checking for our own death
// first so that stalled victims unwind promptly.
func (t *Thread) stall() {
	t.checkKilled()
	t.p.Elapse(StallCycles)
}

// noteWake records a retrying transaction to wake at commit.
func (t *Thread) noteWake(o *Thread) {
	for _, w := range t.toWake {
		if w == o {
			return
		}
	}
	t.toWake = append(t.toWake, o)
}

// WakeAtCommit records line's owners to wake once the hardware attempt
// running on t's processor commits (WakeOwed), when every one of them is
// a retrying transaction: their ownership isolates nothing, so the UFO
// hybrid's fault handler lets the attempt's access complete with faults
// masked (Section 6). It reports whether they all were.
func (t *Thread) WakeAtCommit(line uint64) bool {
	rs := t.stm.retriers(line)
	for _, o := range rs {
		t.noteWake(o)
	}
	return rs != nil
}

// ForgetWakes starts a hardware attempt owing no wake-ups.
func (t *Thread) ForgetWakes() { t.toWake = t.toWake[:0] }

// WakeOwed wakes the retrying transactions this processor's transaction
// owes a wake-up, now that its update is visible.
func (t *Thread) WakeOwed() {
	for _, w := range t.toWake {
		w.wake(t.p)
	}
	t.ForgetWakes()
}

// installUFO applies Algorithm 2's protection rule: read entries install
// fault-on-write; write entries install fault-on-read and fault-on-write.
func (t *Thread) installUFO(line uint64, write bool) {
	if !t.stm.cfg.StrongAtomicity {
		return
	}
	bits := mem.UFOFaultOnWrite
	if write {
		bits = mem.UFOFaultAll
	}
	t.p.SetUFO(mem.LineAddr(line), bits)
}

func (t *Thread) upgradeOwned(line uint64) {
	for i := range t.owned {
		if t.owned[i].line == line {
			t.owned[i].write = true
			return
		}
	}
}

// releaseAll removes this transaction from every otable entry it owns,
// clearing UFO protection when the last owner leaves (the reverse of
// Algorithm 2, with the same row-locking discipline).
func (t *Thread) releaseAll() {
	for _, rec := range t.owned {
		idx := t.stm.ot.index(rec.line)
		r := t.stm.ot.row(idx)
		t.ntWriteMustOK(t.stm.ot.rowAddr(idx), 1)
		t.p.Elapse(ReleaseCycles)
		e := r.find(rec.line)
		if e == nil || !e.hasOwner(t) {
			continue // ownership was stolen while we were retrying
		}
		if e.dropOwner(t) {
			t.stm.ot.remove(r, e)
			if t.stm.cfg.StrongAtomicity {
				t.p.SetUFO(mem.LineAddr(rec.line), mem.UFONone)
			}
		}
	}
	t.owned = t.owned[:0]
}

// --- Transactional data accesses ---

// Load implements tm.Tx: read barrier + data read.
func (t *Thread) Load(addr uint64) uint64 {
	t.barrier(addr, false)
	return t.ntReadMustOK(addr)
}

// Store implements tm.Tx: write barrier + undo logging + in-place data
// write (eager versioning). Under LineGranularUndo the first write to a
// line checkpoints all of its words.
func (t *Thread) Store(addr, val uint64) {
	t.barrier(addr, true)
	if t.stm.cfg.LineGranularUndo {
		t.logLine(mem.LineOf(addr))
	} else {
		old := t.ntReadMustOK(addr)
		t.undo = append(t.undo, undoRec{addr: addr, old: old})
		t.p.Elapse(LogCycles)
	}
	t.ntWriteMustOK(addr, val)
}

// logLine checkpoints every word of line once per transaction.
func (t *Thread) logLine(line uint64) {
	for _, r := range t.undo {
		if mem.LineOf(r.addr) == line {
			return // already checkpointed
		}
	}
	base := mem.LineAddr(line)
	for w := uint64(0); w < mem.LineWords; w++ {
		a := base + w*8
		t.undo = append(t.undo, undoRec{addr: a, old: t.ntReadMustOK(a)})
		t.p.Elapse(LogCycles)
	}
}

// Nested implements tm.Tx: body runs as a closed nested transaction
// from a savepoint. A nest that commits folds into its parent (its
// effects stay speculative until the outermost commit); one that aborts
// has its data writes undone, and keeps the ownership it acquired until
// the transaction ends (lazy release).
func (t *Thread) Nested(body func()) bool {
	t.nestSave = append(t.nestSave, len(t.undo))
	t.p.Elapse(tm.NestOpenCycles)
	aborted := tm.CatchNested(body)
	save := t.nestSave[len(t.nestSave)-1]
	t.nestSave = t.nestSave[:len(t.nestSave)-1]
	if aborted {
		t.undoTo(save)
		return false
	}
	t.p.Elapse(tm.NestCloseCycles)
	return true
}

// Abort implements tm.Tx: it aborts the innermost nest when one is open
// (USTM supports partial rollback), otherwise the whole transaction,
// which rolls back and reissues.
func (t *Thread) Abort() {
	if len(t.nestSave) > 0 {
		tm.UnwindNested()
	}
	tm.Unwind(machine.AbortExplicit)
}

// Syscall implements tm.Tx: USTM runs idempotent system calls directly
// (Section 6).
func (t *Thread) Syscall() { t.p.Elapse(tm.SyscallCycles) }

// undoTo restores the undo log newest-first down to entry save, charging
// LogCycles per word, and truncates it there: the one rollback walk of
// Rollback, an aborted nest and Retry.
func (t *Thread) undoTo(save int) {
	for i := len(t.undo) - 1; i >= save; i-- {
		r := t.undo[i]
		t.ntWriteMustOK(r.addr, r.old)
		t.p.Elapse(LogCycles)
	}
	t.undo = t.undo[:save]
}

// Retry implements tm.Tx's transactional waiting: undo speculative
// writes, convert held write entries to reads, deschedule until a
// committing writer wakes us, then unwind for re-execution.
func (t *Thread) Retry() {
	t.checkKilled()
	t.undoTo(0)
	// Downgrade write entries to read entries (fault-on-write only).
	for i := range t.owned {
		if !t.owned[i].write {
			continue
		}
		line := t.owned[i].line
		if e := t.stm.ot.find(line); e != nil && e.hasOwner(t) {
			e.write = false
		}
		t.owned[i].write = false
		if t.stm.cfg.StrongAtomicity {
			t.p.SetUFO(mem.LineAddr(line), mem.UFOFaultOnWrite)
		}
	}
	// A conflictor may have signaled us to abort during the downgrade
	// writes above; unwinding now (rather than blocking) keeps the killer
	// from waiting forever on a descheduled victim. No scheduling point
	// separates this check from Block, so the check cannot go stale.
	t.checkKilled()
	t.status = statusRetrying
	if !t.wakePending {
		t.p.Block()
	}
	t.wakePending = false
	t.status = statusRunning
	t.checkKilled() // a kill may have woken us instead of a writer
	tm.UnwindRetry()
}

// wake readies a retrying transaction (called by committers after their
// update is visible). Safe to call from any running processor.
func (t *Thread) wake(from *machine.Proc) {
	if t.status != statusRetrying {
		return
	}
	t.wakePending = true
	from.Wake(t.p)
}

// --- helpers ---

// ntReadMustOK performs a non-transactional read that must succeed (UFO
// faults are disabled inside software transactions; non-transactional
// reads are never NACKed).
func (t *Thread) ntReadMustOK(addr uint64) uint64 {
	v, out := t.p.NTRead(addr)
	if out.Kind != machine.OK {
		panic(fmt.Sprintf("ustm: unexpected outcome %v for STM-internal read at %#x", out, addr))
	}
	return v
}

func (t *Thread) ntWriteMustOK(addr, val uint64) {
	if out := t.p.NTWrite(addr, val); out.Kind != machine.OK {
		panic(fmt.Sprintf("ustm: unexpected outcome %v for STM-internal write at %#x", out, addr))
	}
}
