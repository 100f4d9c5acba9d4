package norec

import (
	"testing"

	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/tm"
	"repro/internal/tmtest"
	"repro/internal/txstats"
)

func newMachine(procs int) *machine.Machine {
	p := machine.DefaultParams(procs)
	p.MemBytes = 1 << 22
	return machine.New(p)
}

// run executes one body per proc through the system's Exec handles.
func run(m *machine.Machine, s *System, bodies ...func(tm.Exec)) {
	fns := make([]func(*machine.Proc), len(bodies))
	for i, body := range bodies {
		ex := s.Exec(m.Proc(i))
		b := body
		fns[i] = func(*machine.Proc) { b(ex) }
	}
	m.Run(fns)
}

// TestSingleProcCommitsInHardware: an uncontended read-modify-write loop
// stays entirely on the hardware path, and each writing commit bumps the
// hardware notification counter.
func TestSingleProcCommitsInHardware(t *testing.T) {
	m := newMachine(1)
	s := New(m, cm.KindExponential)
	addr := m.Mem.Sbrk(64)
	run(m, s, func(ex tm.Exec) {
		for i := 0; i < 10; i++ {
			ex.Atomic(func(tx tm.Tx) {
				tx.Store(addr, tx.Load(addr)+1)
			})
		}
	})
	if got := m.Mem.Read64(addr); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if m.Count.HWCommits != 10 || m.Count.SWCommits != 0 || m.Count.Failovers != 0 {
		t.Fatalf("stats = %+v, want 10 pure hardware commits", tm.StatsOf(&m.Count))
	}
	if got := m.Mem.Read64(s.htmAddr); got != 10 {
		t.Fatalf("hardware commit counter = %d, want 10", got)
	}
	if got := m.Mem.Read64(s.lockAddr); got != 0 {
		t.Fatalf("seqlock moved to %d with no software commit", got)
	}
	if s.lastWriter != 0 {
		t.Fatalf("lastWriter = %d, want 0", s.lastWriter)
	}
}

// TestReadOnlyHardwareSkipsCounterBump: read-only hardware transactions
// invalidate no software snapshot, so they must not advance the hardware
// commit counter (the documented divergence from the exemplar).
func TestReadOnlyHardwareSkipsCounterBump(t *testing.T) {
	m := newMachine(1)
	s := New(m, cm.KindExponential)
	addr := m.Mem.Sbrk(64)
	var got uint64
	run(m, s, func(ex tm.Exec) {
		ex.Atomic(func(tx tm.Tx) { got = tx.Load(addr) })
	})
	if got != 0 {
		t.Fatalf("load = %d", got)
	}
	if m.Count.HWCommits != 1 {
		t.Fatalf("stats = %+v, want one hardware commit", tm.StatsOf(&m.Count))
	}
	if v := m.Mem.Read64(s.htmAddr); v != 0 {
		t.Fatalf("hardware commit counter = %d after a read-only commit, want 0", v)
	}
}

// TestSoftwareCommitAdvancesSeqlock: a syscall forces the software path;
// its writing commit advances the seqlock by two (acquire + release),
// leaves it free, and writes back the redo log.
func TestSoftwareCommitAdvancesSeqlock(t *testing.T) {
	m := newMachine(1)
	s := New(m, cm.KindExponential)
	addr := m.Mem.Sbrk(64)
	run(m, s, func(ex tm.Exec) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Syscall()
			tx.Store(addr, 7)
		})
	})
	if m.Count.SWCommits != 1 || m.Count.Failovers != 1 {
		t.Fatalf("stats = %+v, want one failover and one software commit", tm.StatsOf(&m.Count))
	}
	if got := m.Mem.Read64(addr); got != 7 {
		t.Fatalf("write-back missing: mem = %d", got)
	}
	if s.seq != 2 || m.Mem.Read64(s.lockAddr) != 2 {
		t.Fatalf("seqlock = %d (mem %d), want 2", s.seq, m.Mem.Read64(s.lockAddr))
	}
	if s.lockOwner != -1 {
		t.Fatalf("lock still owned by %d", s.lockOwner)
	}
	if s.lastWriter != 0 {
		t.Fatalf("lastWriter = %d, want 0", s.lastWriter)
	}
	if v := m.Mem.Read64(s.htmAddr); v != 0 {
		t.Fatalf("hardware counter = %d, want 0 (no hardware commit)", v)
	}
}

// TestSoftwareNestedPartialAbort: an aborted closed nest rolls back only
// its own redo-log entries (lazy versioning partial abort).
func TestSoftwareNestedPartialAbort(t *testing.T) {
	m := newMachine(1)
	s := New(m, cm.KindExponential)
	a := m.Mem.Sbrk(64)
	b := m.Mem.Sbrk(64)
	var nested bool
	run(m, s, func(ex tm.Exec) {
		ex.Atomic(func(tx tm.Tx) {
			tx.Syscall() // force the software path (nests flatten in hardware)
			tx.Store(a, 1)
			nested = tx.Nested(func() {
				tx.Store(b, 2)
				tx.Abort()
			})
		})
	})
	if nested {
		t.Fatal("aborted nest reported success")
	}
	if m.Mem.Read64(a) != 1 || m.Mem.Read64(b) != 0 {
		t.Fatalf("mem = a:%d b:%d, want a:1 b:0 (partial abort)", m.Mem.Read64(a), m.Mem.Read64(b))
	}
}

// TestRetryFailsOverAndPolls: Retry aborts the hardware attempt (hardware
// cannot wait), fails over, and polls in software until the producer's
// store makes the condition pass.
func TestRetryFailsOverAndPolls(t *testing.T) {
	m := newMachine(2)
	s := New(m, cm.KindExponential)
	flag := m.Mem.Sbrk(64)
	done := m.Mem.Sbrk(64)
	run(m, s,
		func(ex tm.Exec) {
			ex.Proc().Elapse(20_000)
			ex.Atomic(func(tx tm.Tx) { tx.Store(flag, 1) })
		},
		func(ex tm.Exec) {
			ex.Atomic(func(tx tm.Tx) {
				if tx.Load(flag) == 0 {
					tx.Retry()
				}
				tx.Store(done, 1)
			})
		})
	if m.Mem.Read64(done) != 1 {
		t.Fatal("consumer never committed")
	}
	if m.Count.RetryWaits == 0 {
		t.Fatalf("stats = %+v, want retry polls", tm.StatsOf(&m.Count))
	}
	if m.Count.Failovers == 0 {
		t.Fatal("Retry should fail over to the software path")
	}
}

// commitLog records the tx-commits whose committing attempt ran in
// software (sw) or in hardware (!sw).
type commitLog struct {
	sw bool
	tmtest.EventLog
}

func (l *commitLog) Event(e machine.TraceEvent) {
	if e.SW() == l.sw {
		l.EventLog.Event(e)
	}
}

// observeConflicts subscribes three recording observers to m, for tuple
// assertions on the raw conflict edges and for counting the hardware
// and software commit events.
func observeConflicts(m *machine.Machine) (edges *tmtest.EventLog, hwCommits, swCommits *commitLog) {
	edges, hwCommits, swCommits = new(tmtest.EventLog), &commitLog{sw: false}, &commitLog{sw: true}
	m.Observe(machine.KindSet(machine.TraceConflict), edges)
	m.Observe(machine.KindSet(machine.TraceTxCommit), hwCommits)
	m.Observe(machine.KindSet(machine.TraceTxCommit), swCommits)
	return edges, hwCommits, swCommits
}

// TestHTMAbortsNotStallsDuringWriteback pins the subscription protocol:
// while proc 0's software commits hold the seqlock and write back a long
// redo log, proc 1's hardware transactions (touching disjoint data)
// abort and retry — they never stall, never fail over, and every abort
// is attributed to the software committer.
func TestHTMAbortsNotStallsDuringWriteback(t *testing.T) {
	m := newMachine(2)
	// The pin is that hardware rides out the write-back purely by
	// aborting and retrying, within MaxHTMRetries.
	s := New(m, cm.KindExponential)
	edges, hwCommits, swCommits := observeConflicts(m)
	const lines, swRuns, hwRuns = 16, 4, 60
	base := m.Mem.Sbrk(64 * lines)
	mine := m.Mem.Sbrk(64)
	run(m, s,
		func(ex tm.Exec) {
			for k := 0; k < swRuns; k++ {
				ex.Atomic(func(tx tm.Tx) {
					tx.Syscall() // force the software path
					for i := uint64(0); i < lines; i++ {
						tx.Store(base+64*i, uint64(k)+1)
					}
				})
			}
		},
		func(ex tm.Exec) {
			for k := 0; k < hwRuns; k++ {
				ex.Atomic(func(tx tm.Tx) {
					tx.Store(mine, tx.Load(mine)+1)
				})
			}
		})
	if m.Mem.Read64(mine) != hwRuns {
		t.Fatalf("proc 1 counter = %d, want %d", m.Mem.Read64(mine), hwRuns)
	}
	if len(swCommits.Events) != swRuns || m.Count.SWCommits != swRuns {
		t.Fatalf("software commits = %d/%d, want %d", len(swCommits.Events), m.Count.SWCommits, swRuns)
	}
	// The pin: every proc-1 transaction still commits in hardware...
	if len(hwCommits.Events) != hwRuns || m.Count.HWCommits != hwRuns {
		t.Fatalf("hardware commits = %d/%d, want %d (no failover, no stall)",
			len(hwCommits.Events), m.Count.HWCommits, hwRuns)
	}
	if m.Count.Failovers != uint64(swRuns) {
		t.Fatalf("failovers = %d, want only proc 0's forced %d", m.Count.Failovers, swRuns)
	}
	// ...but only after aborting during the write-back windows.
	if m.Count.HWRetries == 0 {
		t.Fatal("no hardware retries: the write-back never aborted a hardware transaction")
	}
	sawLockEdge := false
	conflicts := 0
	for _, e := range edges.Events {
		if e.Reason == machine.AbortSyscall {
			continue // proc 0's forced-failover self-edge
		}
		conflicts++
		if e.Proc != 1 || e.Peer != 0 {
			t.Fatalf("unexpected edge direction: %+v", e)
		}
		if e.Reason != machine.AbortConflict && e.Reason != machine.AbortNonTConflict {
			t.Fatalf("unexpected abort reason: %+v", e)
		}
		if e.HasAddr() && e.Addr == s.lockAddr {
			sawLockEdge = true
		}
	}
	if conflicts == 0 {
		t.Fatal("no conflict edges recorded")
	}
	if !sawLockEdge {
		t.Fatalf("no edge on the seqlock line %#x; edges = %+v", s.lockAddr, edges.Events)
	}
}

// TestColliderAccountingIdentities: a two-proc same-line collision with
// lifecycle accounting attached satisfies the exact txstats identities
// (everything begun commits; the cycle split sums to total latency;
// attributed plus unknown wasted cycles equal total wasted) and records
// one commit event per transaction.
func TestColliderAccountingIdentities(t *testing.T) {
	m := newMachine(2)
	s := New(m, cm.KindExponential)
	edges, hwCommits, swCommits := observeConflicts(m)
	rec := txstats.New(2)
	m.Observe(txstats.Kinds, rec)
	const iters = 12
	addr := m.Mem.Sbrk(64)
	body := func(ex tm.Exec) {
		for k := 0; k < iters; k++ {
			ex.Atomic(func(tx tm.Tx) {
				v := tx.Load(addr)
				ex.Proc().Elapse(200)
				tx.Store(addr, v+1)
			})
		}
	}
	run(m, s, body, body)
	if got := m.Mem.Read64(addr); got != 2*iters {
		t.Fatalf("collider count = %d, want %d", got, 2*iters)
	}
	if total := len(hwCommits.Events) + len(swCommits.Events); total != 2*iters {
		t.Fatalf("%d commits recorded, want %d", total, 2*iters)
	}
	rep := rec.Report(&m.Count)
	if rep.Begun != 2*iters || rep.Committed != 2*iters || rep.InFlight != 0 {
		t.Fatalf("begun/committed/in-flight = %d/%d/%d, want %d/%d/0",
			rep.Begun, rep.Committed, rep.InFlight, 2*iters, 2*iters)
	}
	split := rep.UsefulCycles + rep.WastedCycles + rep.BackoffCycles +
		rep.RetryWaitCycles + rep.OverheadCycles
	if rep.Latency == nil || split != rep.Latency.Sum {
		t.Fatalf("cycle split %d != latency sum %v", split, rep.Latency)
	}
	var attributed uint64
	for _, pc := range rep.AggressorWasted {
		attributed += pc.Cycles
	}
	if attributed+rep.UnknownWasted != rep.WastedCycles {
		t.Fatalf("attributed %d + unknown %d != wasted %d",
			attributed, rep.UnknownWasted, rep.WastedCycles)
	}
	for _, e := range edges.Events {
		if e.Proc < 0 || e.Proc > 1 || e.Peer < -1 || e.Peer > 1 {
			t.Fatalf("malformed edge: %+v", e)
		}
		if e.Reason == machine.AbortNone {
			t.Fatalf("edge without reason: %+v", e)
		}
	}
}
