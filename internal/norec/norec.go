// Package norec implements HybridNOrec (Dalessandro, Carouge, White,
// Dice, Scott, Spear), the value-validating hybrid the paper's related
// work positions against HyTM/PhTM-style designs (§5's evaluation axis;
// ROADMAP head-to-head): best-effort hardware transactions over an
// uninstrumented fast path, with a NOrec software fallback whose commits
// serialize through a single seqlock and validate by value instead of by
// per-stripe locks.
//
// Two commit counters coordinate the paths:
//
//   - the seqlock (odd = a software write-back is in progress) doubles as
//     the STM→STM notification counter — every software commit advances
//     it by two;
//   - a separate HTM commit counter is bumped transactionally by every
//     writing hardware transaction, so a hardware commit invalidates
//     software snapshots atomically with its own commit.
//
// Hardware transactions subscribe to the seqlock by reading it
// transactionally at begin: the software committer's lock-acquisition
// write then aborts every in-flight hardware transaction through
// ordinary coherence, so hardware never observes a torn write-back.
// Software readers log (address, value) pairs and revalidate the whole
// log whenever either counter moves; write-back is a lazy redo log
// applied under the seqlock.
//
// Both counters live at simulated addresses so the polling and
// subscription traffic is charged like any other memory traffic. The
// exemplar's RETRY template knob maps onto Config.MaxHTMRetries and its
// CM knob onto the cm.Spec policy layer (cm.Tunable).
package norec

import (
	"repro/internal/btm"
	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
)

// Config carries HybridNOrec parameters and cost constants.
type Config struct {
	BeginCycles    uint64
	BarrierCycles  uint64 // software read/write barrier logic
	ValidateCycles uint64 // value-log validation setup, per validation pass
	CommitCycles   uint64
	PerWriteCycles uint64 // redo-log write-back logic per entry
	// LockSpinCycles is charged per poll while waiting out a concurrent
	// software write-back (the seqlock is odd).
	LockSpinCycles uint64
	// MaxHTMRetries bounds hardware retries of transient aborts before
	// failing over to the software path (the exemplar's RETRY knob).
	MaxHTMRetries int
	// BackoffBase is the exponential-backoff unit between attempts. Zero
	// selects cm.DefaultBase (64).
	BackoffBase uint64
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{
		BeginCycles:    10,
		BarrierCycles:  6,
		ValidateCycles: 6,
		CommitCycles:   16,
		PerWriteCycles: 8,
		LockSpinCycles: 20,
		MaxHTMRetries:  8,
	}
}

// System implements tm.System.
type System struct {
	m     *machine.Machine
	cfg   Config
	stats tm.Stats

	// lockAddr holds the seqlock / software commit counter; htmAddr holds
	// the hardware commit counter. Each gets its own cache line so the
	// hardware subscription (lockAddr only) is not invalidated by
	// hardware-counter bumps.
	lockAddr uint64
	htmAddr  uint64

	// Host-side shadow of the protocol state (safe: only the processor
	// holding the execution token touches it). seq mirrors the seqlock
	// value; lockOwner is the processor holding it (-1 when free);
	// lastWriter is the processor whose commit most recently advanced
	// either counter (-1 when none), used to attribute
	// value-validation failures.
	seq        uint64
	lockOwner  int
	lastWriter int

	backoff cm.Spec
	cmgr    *cm.Manager
}

// SetBackoffPolicy implements cm.Tunable: it selects the contention-
// management policy. Call before the first transaction runs.
func (s *System) SetBackoffPolicy(spec cm.Spec) {
	s.backoff = spec
	s.cmgr = nil
}

// CM implements cm.Instrumented (built lazily so cfg.BackoffBase tweaks
// after New still take effect).
func (s *System) CM() *cm.Manager {
	if s.cmgr == nil {
		s.cmgr = cm.NewManager(s.backoff, s.cfg.BackoffBase)
	}
	return s.cmgr
}

// New builds a HybridNOrec instance over the machine.
func New(m *machine.Machine, cfg Config) *System {
	return &System{
		m:          m,
		cfg:        cfg,
		lockAddr:   m.Mem.Sbrk(mem.LineBytes),
		htmAddr:    m.Mem.Sbrk(mem.LineBytes),
		lockOwner:  -1,
		lastWriter: -1,
	}
}

// Name implements tm.System.
func (s *System) Name() string { return "hybrid-norec" }

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return &s.stats }

// Exec implements tm.System.
func (s *System) Exec(p *machine.Proc) tm.Exec {
	return &exec{s: s, p: p, u: btm.New(p)}
}

// logEntry is one value-log record: the value this transaction observed
// at the address. Validation re-reads the address and compares values —
// NOrec's conflict detection has no per-location metadata at all.
type logEntry struct {
	addr uint64
	val  uint64
}

type exec struct {
	s *System
	p *machine.Proc
	u *btm.Unit

	// Hardware-attempt state.
	hwWrote bool

	// Software-attempt state.
	lockSnap  uint64 // seqlock sample the value log is valid against
	htmSnap   uint64 // hardware-counter sample ditto
	valuelog  []logEntry
	redo      map[uint64]uint64 // addr → buffered value (lazy versioning)
	redoOrder []uint64          // insertion order, for deterministic write-back
	nestSaves []norecSave
	nestUndo  []redoUndo

	onCommit []func()
}

// norecSave is a closed-nest savepoint over the speculative state.
type norecSave struct {
	logLen, redoLen, undoLen int
}

// redoUndo records a redo-log overwrite made inside a nest.
type redoUndo struct {
	addr    uint64
	hadPrev bool
	prev    uint64
}

var _ tm.Exec = (*exec)(nil)

func (e *exec) Proc() *machine.Proc { return e.p }

// Load / Store: HybridNOrec is weakly atomic; non-transactional accesses
// are uninstrumented and never consult the counters.
func (e *exec) Load(addr uint64) uint64 {
	v, out := e.p.NTRead(addr)
	if out.Kind != machine.OK {
		panic("norec: read outcome " + out.Kind.String())
	}
	return v
}

func (e *exec) Store(addr, val uint64) {
	if out := e.p.NTWrite(addr, val); out.Kind != machine.OK {
		panic("norec: write outcome " + out.Kind.String())
	}
}

// Atomic implements tm.Exec: hardware attempts with the seqlock
// subscription, failing over to the NOrec software path on capacity,
// persistent conflicts, retry requests, or policy escalation.
func (e *exec) Atomic(body func(tm.Tx)) {
	age := e.s.m.NextAge()
	stats := &e.s.stats
	cmgr := e.s.CM()
	p := e.p
	p.TxLifeBegin()
	htmFails := 0
	aborts := 0
	for {
		p.TxLifeAttempt(machine.PathHTM)
		reason, retryReq, committed := e.tryHW(age, body)
		if committed {
			stats.HWCommits++
			p.TxLifeCommit(machine.PathHTM)
			cmgr.TxDone(age)
			for _, f := range e.onCommit {
				f()
			}
			return
		}
		p.TxLifeAbort(machine.PathHTM, reason)
		if retryReq {
			// Hardware cannot wait for a condition: fail over to the
			// software path, where retry is modeled as polling.
			e.failover(age, body)
			cmgr.TxDone(age)
			return
		}
		switch reason {
		case machine.AbortOverflow, machine.AbortSyscall, machine.AbortIO,
			machine.AbortException, machine.AbortNesting:
			e.failover(age, body)
			cmgr.TxDone(age)
			return
		case machine.AbortPageFault:
			cmgr.PageFaultStall(p)
			continue
		default:
			// Conflict (including the seqlock subscription firing during
			// a software write-back): retry in hardware, bounded.
			htmFails++
			if htmFails >= e.s.cfg.MaxHTMRetries {
				e.failover(age, body)
				cmgr.TxDone(age)
				return
			}
		}
		aborts++ // the policy clamps the shift (saturating counter)
		stats.HWRetries++
		if cmgr.OnAbort(p, age, aborts, reason) != cm.EscalateNone {
			// Starving per the policy: serialize through software early.
			e.failover(age, body)
			cmgr.TxDone(age)
			return
		}
	}
}

// tryHW runs one hardware attempt. The transactional seqlock read at
// begin is the subscription: the line stays in the hardware read set, so
// a software committer's lock-acquisition write aborts this transaction
// through coherence before any torn write-back state is visible.
func (e *exec) tryHW(age uint64, body func(tm.Tx)) (machine.AbortReason, bool, bool) {
	e.onCommit = e.onCommit[:0]
	e.hwWrote = false
	if !e.u.Begin(age) {
		return machine.AbortNesting, false, false
	}
	lv, out := e.u.Load(e.s.lockAddr)
	if out.Kind == machine.HWAborted {
		return out.Reason, false, false
	}
	if lv&1 == 1 {
		// A software write-back is in progress: abort (do not stall) and
		// blame the lock holder.
		e.u.AbortAttributed(machine.AbortConflict, e.s.lockOwner, e.s.lockAddr)
		return machine.AbortConflict, false, false
	}
	reason, retryReq, aborted := tm.Catch(func() { body(hwTx{e}) })
	if aborted {
		return reason, retryReq, false
	}
	if e.hwWrote {
		// Bump the hardware commit counter inside the transaction, so the
		// notification to software snapshots commits atomically with the
		// data. Read-only hardware transactions skip the bump (they
		// invalidate nobody) — see DESIGN.md §16 for this divergence from
		// the exemplar.
		hv, out := e.u.Load(e.s.htmAddr)
		if out.Kind == machine.HWAborted {
			return out.Reason, false, false
		}
		if out := e.u.Store(e.s.htmAddr, hv+1); out.Kind == machine.HWAborted {
			return out.Reason, false, false
		}
	}
	if out := e.u.End(); out.Kind == machine.HWAborted {
		return out.Reason, false, false
	}
	if e.hwWrote {
		e.s.lastWriter = e.p.ID()
	}
	return machine.AbortNone, false, true
}

func (e *exec) failover(age uint64, body func(tm.Tx)) {
	e.s.stats.Failovers++
	e.runSW(age, body)
}

// runSW is the NOrec software path: snapshot the counters, speculate
// against a redo log and value log, then commit under the seqlock.
func (e *exec) runSW(age uint64, body func(tm.Tx)) {
	cmgr := e.s.CM()
	path := machine.PathSW
	attempts := 0
	for {
		e.p.TxLifeAttempt(path)
		e.swBegin(age)
		reason, retryReq, aborted := tm.Catch(func() { body(swTx{e}) })
		if !aborted {
			if e.swCommit() {
				e.p.SetSTM(false, 0)
				e.s.stats.SWCommits++
				e.p.RecordSWCommit()
				e.p.TxLifeCommit(path)
				for _, f := range e.onCommit {
					f()
				}
				return
			}
			aborted = true
			reason = machine.AbortConflict
		}
		e.p.SetSTM(false, 0)
		if retryReq {
			// Poll-based retry emulation (NOrec has no native waiting).
			e.s.stats.Retries++
			e.p.TxLifeRetryWait()
			cmgr.RetryPoll(e.p)
			continue
		}
		e.s.stats.SWAborts++
		e.p.TxLifeAbort(path, reason)
		attempts++ // the policy clamps the shift (saturating counter)
		if cmgr.OnAbort(e.p, age, attempts, reason) != cm.EscalateNone {
			// Starving per the policy: with no other fallback, take the
			// global serialization token (released at commit).
			cmgr.AcquireToken(e.p, age)
			path = machine.PathFallback
		}
	}
}

func (e *exec) swBegin(age uint64) {
	// Wait out any in-progress write-back, then snapshot both counters:
	// the value log is valid exactly as long as neither moves.
	for {
		lv := e.ntRead(e.s.lockAddr)
		if lv&1 == 0 {
			e.lockSnap = lv
			break
		}
		e.s.stats.SWStalls++
		e.p.Elapse(e.s.cfg.LockSpinCycles)
	}
	e.htmSnap = e.ntRead(e.s.htmAddr)
	if e.redo == nil {
		e.redo = make(map[uint64]uint64)
	} else {
		clear(e.redo)
	}
	e.redoOrder = e.redoOrder[:0]
	e.valuelog = e.valuelog[:0]
	e.onCommit = e.onCommit[:0]
	e.nestSaves = e.nestSaves[:0]
	e.nestUndo = e.nestUndo[:0]
	e.p.SetSTM(true, age)
	e.p.Elapse(e.s.cfg.BeginCycles)
}

func (e *exec) ntRead(addr uint64) uint64 {
	v, out := e.p.NTRead(addr)
	if out.Kind != machine.OK {
		panic("norec: read outcome " + out.Kind.String())
	}
	return v
}

func (e *exec) ntWrite(addr, val uint64) {
	if out := e.p.NTWrite(addr, val); out.Kind != machine.OK {
		panic("norec: write outcome " + out.Kind.String())
	}
}

// swLoad is the NOrec read barrier: redo-log hit, else read the value
// and poll both counters — if either moved since the snapshot, the whole
// value log revalidates before the read is accepted and logged.
func (e *exec) swLoad(addr uint64) uint64 {
	if v, ok := e.redo[addr]; ok {
		return v
	}
	e.p.Elapse(e.s.cfg.BarrierCycles)
	v := e.ntRead(addr)
	for e.ntRead(e.s.lockAddr) != e.lockSnap || e.ntRead(e.s.htmAddr) != e.htmSnap {
		e.revalidate()
		v = e.ntRead(addr)
	}
	e.valuelog = append(e.valuelog, logEntry{addr: addr, val: v})
	return v
}

// revalidate re-reads every value-log entry against memory once the
// seqlock is quiescent, unwinding with a conflict abort on the first
// value mismatch; on success the snapshots advance to the new counter
// values (NOrec's snapshot extension).
func (e *exec) revalidate() {
	for {
		lv := e.ntRead(e.s.lockAddr)
		if lv&1 == 1 {
			e.s.stats.SWStalls++
			e.p.Elapse(e.s.cfg.LockSpinCycles)
			continue
		}
		hv := e.ntRead(e.s.htmAddr)
		e.p.Elapse(e.s.cfg.ValidateCycles)
		for _, ent := range e.valuelog {
			if e.ntRead(ent.addr) != ent.val {
				e.abortConflict(ent.addr)
			}
		}
		// The log only stays valid if no commit landed while we re-read.
		if e.ntRead(e.s.lockAddr) == lv && e.ntRead(e.s.htmAddr) == hv {
			e.lockSnap, e.htmSnap = lv, hv
			return
		}
	}
}

// abortConflict records a who-aborted-whom edge against the most recent
// committer (value-based validation has no per-location metadata naming
// the writer; the last committed writer is the transaction whose
// write-back invalidated us) and unwinds.
func (e *exec) abortConflict(addr uint64) {
	e.p.RecordSWAbortBy(e.s.lastWriter, machine.AbortConflict,
		mem.LineAddr(mem.LineOf(addr)), true)
	tm.Unwind(machine.AbortConflict)
}

func (e *exec) swStore(addr, val uint64) {
	e.p.Elapse(e.s.cfg.BarrierCycles)
	prev, seen := e.redo[addr]
	if !seen {
		e.redoOrder = append(e.redoOrder, addr)
	}
	if len(e.nestSaves) > 0 {
		e.nestUndo = append(e.nestUndo, redoUndo{addr: addr, hadPrev: seen, prev: prev})
	}
	e.redo[addr] = val
}

// swCommit implements the NOrec commit protocol. Returns false on
// value-validation failure (the transaction retries).
func (e *exec) swCommit() bool {
	if len(e.redoOrder) == 0 {
		// Read-only fast path: reads were validated as they happened.
		e.p.Elapse(e.s.cfg.CommitCycles)
		return true
	}
	// 1. Acquire the seqlock (odd = held). The NT write invalidates the
	// line in every subscribed hardware transaction's read set, aborting
	// them before the write-back begins.
	for {
		lv := e.ntRead(e.s.lockAddr)
		if lv&1 == 0 && e.s.lockOwner == -1 {
			break
		}
		e.s.stats.SWStalls++
		e.p.Elapse(e.s.cfg.LockSpinCycles)
	}
	pre := e.s.seq
	e.s.lockOwner = e.p.ID()
	e.s.seq++
	e.ntWrite(e.s.lockAddr, e.s.seq)
	// 2. Validate if anything committed since the snapshot.
	hv := e.ntRead(e.s.htmAddr)
	if pre != e.lockSnap || hv != e.htmSnap {
		e.p.Elapse(e.s.cfg.ValidateCycles)
		for _, ent := range e.valuelog {
			if e.ntRead(ent.addr) != ent.val {
				e.releaseLock()
				e.p.RecordSWAbortBy(e.s.lastWriter, machine.AbortConflict,
					mem.LineAddr(mem.LineOf(ent.addr)), true)
				return false
			}
		}
	}
	// 3. Write back the redo log (in insertion order, keeping the
	// simulation deterministic). Each NT write also kills any hardware
	// transaction speculating on the line.
	for _, addr := range e.redoOrder {
		e.ntWrite(addr, e.redo[addr])
		e.p.Elapse(e.s.cfg.PerWriteCycles)
	}
	// 4. Release the seqlock (back to even = one software commit
	// notification) and become the attribution target for the values we
	// just changed.
	e.releaseLock()
	e.s.lastWriter = e.p.ID()
	e.p.Elapse(e.s.cfg.CommitCycles)
	return true
}

func (e *exec) releaseLock() {
	e.s.seq++
	e.ntWrite(e.s.lockAddr, e.s.seq)
	e.s.lockOwner = -1
}

// beginNest/endNest/abortNest implement closed nesting over the redo log
// (lazy versioning makes partial abort a pure buffer operation; the
// value log never rolls back — reads stay validated regardless).
func (e *exec) beginNest() {
	e.nestSaves = append(e.nestSaves, norecSave{
		logLen: len(e.valuelog), redoLen: len(e.redoOrder), undoLen: len(e.nestUndo),
	})
	e.p.Elapse(4)
}

func (e *exec) endNest() {
	e.nestSaves = e.nestSaves[:len(e.nestSaves)-1]
	e.p.Elapse(2)
}

func (e *exec) abortNest() {
	sv := e.nestSaves[len(e.nestSaves)-1]
	e.nestSaves = e.nestSaves[:len(e.nestSaves)-1]
	for i := len(e.nestUndo) - 1; i >= sv.undoLen; i-- {
		u := e.nestUndo[i]
		if u.hadPrev {
			e.redo[u.addr] = u.prev
		} else {
			delete(e.redo, u.addr)
		}
	}
	e.nestUndo = e.nestUndo[:sv.undoLen]
	e.redoOrder = e.redoOrder[:sv.redoLen]
	e.valuelog = e.valuelog[:sv.logLen]
}

// hwTx is the uninstrumented hardware handle: plain transactional
// accesses, with the seqlock subscription (taken at begin) standing in
// for all software-path coordination.
type hwTx struct{ e *exec }

var _ tm.Tx = hwTx{}

func (h hwTx) Load(addr uint64) uint64 {
	v, out := h.e.u.Load(addr)
	switch out.Kind {
	case machine.OK:
		return v
	case machine.HWAborted:
		tm.Unwind(out.Reason)
	}
	panic("norec: load outcome " + out.Kind.String())
}

func (h hwTx) Store(addr, val uint64) {
	out := h.e.u.Store(addr, val)
	switch out.Kind {
	case machine.OK:
		h.e.hwWrote = true
		return
	case machine.HWAborted:
		tm.Unwind(out.Reason)
	}
	panic("norec: store outcome " + out.Kind.String())
}

func (h hwTx) OnCommit(f func()) { h.e.onCommit = append(h.e.onCommit, f) }

func (h hwTx) Abort() {
	h.e.u.Abort(machine.AbortExplicit)
	tm.Unwind(machine.AbortExplicit)
}

// Nested implements tm.Tx: hardware transactions flatten closed nesting
// (as BTM does); an inner abort therefore aborts the whole transaction —
// which fails over to software where partial abort is supported.
func (h hwTx) Nested(body func()) bool {
	if !h.e.u.Begin(0) {
		tm.Unwind(machine.AbortNesting)
	}
	if tm.CatchNested(body) {
		h.e.u.Abort(machine.AbortExplicit)
		tm.Unwind(machine.AbortExplicit)
	}
	h.e.u.End()
	return true
}

func (h hwTx) Retry() {
	h.e.u.Abort(machine.AbortExplicit)
	tm.UnwindRetry()
}

func (h hwTx) Syscall() {
	h.e.u.Abort(machine.AbortSyscall)
	tm.Unwind(machine.AbortSyscall)
}

// swTx is the NOrec software handle.
type swTx struct{ e *exec }

var _ tm.Tx = swTx{}

func (t swTx) Load(addr uint64) uint64 { return t.e.swLoad(addr) }
func (t swTx) Store(addr, val uint64)  { t.e.swStore(addr, val) }
func (t swTx) OnCommit(f func())       { t.e.onCommit = append(t.e.onCommit, f) }

func (t swTx) Abort() {
	if len(t.e.nestSaves) > 0 {
		tm.UnwindNested()
	}
	tm.Unwind(machine.AbortExplicit)
}

// Nested implements tm.Tx with real partial abort (a redo-log savepoint).
func (t swTx) Nested(body func()) bool {
	t.e.beginNest()
	if tm.CatchNested(body) {
		t.e.abortNest()
		return false
	}
	t.e.endNest()
	return true
}

func (t swTx) Retry()   { tm.UnwindRetry() }
func (t swTx) Syscall() { t.e.p.Elapse(1) }
