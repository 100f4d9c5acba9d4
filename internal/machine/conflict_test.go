package machine

import (
	"slices"
	"testing"

	"repro/internal/mem"
)

// observeConflicts subscribes two recording observers to m and returns
// them: one sees the who-aborted-whom edges, the other the commits.
func observeConflicts(m *Machine) (edges, commits *eventLog) {
	return observe(m, KindSet(TraceConflict)), observe(m, KindSet(TraceTxCommit))
}

// TestConflictEventHWKill: an age-ordered HW-vs-HW kill emits exactly
// one edge carrying the requester as aggressor, the owner as victim, the
// conflicting line, the conflict reason, and a plausible cycle stamp.
func TestConflictEventHWKill(t *testing.T) {
	m := New(testParams(2))
	rec, _ := observeConflicts(m)
	var outs [2]Outcome
	m.Run([]func(*Proc){
		func(p *Proc) {
			age := p.Machine().NextAge() // older
			p.Elapse(300)
			p.BeginHW(age, true)
			p.TxRead(0) // older requester: aborts the younger owner
			outs[0] = p.CommitHW()
		},
		func(p *Proc) {
			p.BeginHW(p.Machine().NextAge(), true) // younger
			outs[1] = p.TxWrite(0, 9)              // killed while the store is in flight
		},
	})
	edges := rec.events
	if len(edges) != 1 {
		t.Fatalf("edges = %+v, want exactly one", edges)
	}
	e := edges[0]
	if e.Peer != 0 || e.Proc != 1 {
		t.Fatalf("edge attribution = %d→%d, want 0→1", e.Peer, e.Proc)
	}
	if !e.HasAddr() || e.Addr != 0 || e.SW() {
		t.Fatalf("edge = %+v, want hw edge on line 0", e)
	}
	if e.Reason != AbortConflict {
		t.Fatalf("edge reason = %v", e.Reason)
	}
	if e.Cycle == 0 || e.Cycle > m.Cycles() {
		t.Fatalf("edge cycle = %d, machine ran %d", e.Cycle, m.Cycles())
	}
	// One HW commit (the aggressor's); edge count matches the abort count.
	if outs != [2]Outcome{okOutcome, {Kind: HWAborted, Reason: AbortConflict}} {
		t.Fatalf("commit outcomes = %+v", outs)
	}
	if m.Count.HWAbortsByReason[AbortConflict] != 1 {
		t.Fatalf("abort count = %d", m.Count.HWAbortsByReason[AbortConflict])
	}
}

// TestConflictEventUFOKill: setting a UFO bit over a speculative reader
// emits a ufo-kill edge from the setter to the reader.
func TestConflictEventUFOKill(t *testing.T) {
	m := New(testParams(2))
	rec, _ := observeConflicts(m)
	m.Run([]func(*Proc){
		func(p *Proc) {
			victimTx(p, false)
		},
		func(p *Proc) {
			p.Elapse(100)
			p.SetUFOEnabled(false)
			p.SetUFO(0, mem.UFOFaultOnWrite)
		},
	})
	edges := rec.events
	if len(edges) != 1 {
		t.Fatalf("edges = %+v", edges)
	}
	e := edges[0]
	if e.Peer != 1 || e.Proc != 0 || e.Reason != AbortUFOKill || !e.HasAddr() || e.Addr != 0 {
		t.Fatalf("ufo edge = %+v, want 1→0 ufo-kill on line 0", e)
	}
}

// TestConflictEventNonTWrite: a non-transactional write into a HW
// read set emits a nonT-conflict edge.
func TestConflictEventNonTWrite(t *testing.T) {
	m := New(testParams(2))
	rec, _ := observeConflicts(m)
	m.Run([]func(*Proc){
		func(p *Proc) {
			victimTx(p, false)
		},
		func(p *Proc) {
			p.Elapse(100)
			p.NTWrite(0, 5)
		},
	})
	edges := rec.events
	if len(edges) != 1 {
		t.Fatalf("edges = %+v", edges)
	}
	e := edges[0]
	if e.Peer != 1 || e.Proc != 0 || e.Reason != AbortNonTConflict {
		t.Fatalf("nonT edge = %+v, want 1→0 nonT-conflict", e)
	}
}

// TestConflictEventAttributedAbort: AbortHW with an aggressor self-aborts
// but attributes the edge to the named peer; aggressor -1 falls back to self.
func TestConflictEventAttributedAbort(t *testing.T) {
	m := New(testParams(2))
	rec, _ := observeConflicts(m)
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.BeginHW(p.Machine().NextAge(), true)
			p.TxRead(0)
			p.AbortHW(AbortExplicit, 1, 0x140, true)
			p.BeginHW(p.Machine().NextAge(), true)
			p.TxRead(64)
			p.AbortHW(AbortExplicit, -1, 0x180, true)
		},
		func(p *Proc) {},
	})
	edges := rec.events
	if len(edges) != 2 {
		t.Fatalf("edges = %+v", edges)
	}
	if e := edges[0]; e.Peer != 1 || e.Proc != 0 || e.Addr != 0x140 || !e.HasAddr() {
		t.Fatalf("attributed edge = %+v, want 1→0 @0x140", e)
	}
	if e := edges[1]; e.Peer != 0 || e.Proc != 0 {
		t.Fatalf("self-fallback edge = %+v, want 0→0", e)
	}
	if m.Count.HWAbortsByReason[AbortExplicit] != 2 {
		t.Fatalf("aborts = %d", m.Count.HWAbortsByReason[AbortExplicit])
	}
}

// TestConflictEventSWHelpers: the RecordSW* pass-throughs stamp the
// caller's clock and the SW flag, and so does a software tx-commit.
func TestConflictEventSWHelpers(t *testing.T) {
	m := New(testParams(2))
	rec, commits := observeConflicts(m)
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.Elapse(10)
			p.RecordSWKill(p.Machine().Proc(1), AbortConflict, 0x200, true)
			p.TxLifeCommit(PathSW, true)
		},
		func(p *Proc) {
			p.Elapse(20)
			p.RecordSWAbortBy(-1, AbortConflict, 0, false)
		},
	})
	edges := rec.events
	if len(edges) != 2 {
		t.Fatalf("edges = %+v", edges)
	}
	if e := edges[0]; !e.SW() || e.Peer != 0 || e.Proc != 1 || e.Addr != 0x200 || e.Cycle < 10 {
		t.Fatalf("sw kill edge = %+v", e)
	}
	if e := edges[1]; !e.SW() || e.Peer != -1 || e.Proc != 1 || e.HasAddr() {
		t.Fatalf("sw abort-by edge = %+v", e)
	}
	if cs := commits.events; len(cs) != 1 || cs[0].Kind != TraceTxCommit || !cs[0].SW() || cs[0].Proc != 0 {
		t.Fatalf("commits = %+v", cs)
	}
}

// TestCollisionRunsUnobserved: with no observer subscribed the same
// collision runs identically and nothing panics (the empty-mask fast
// path).
func TestCollisionRunsUnobserved(t *testing.T) {
	m := New(testParams(2))
	m.Run([]func(*Proc){
		func(p *Proc) {
			victimTx(p, true)
			p.RecordSWKill(p.Machine().Proc(1), AbortConflict, 0, true)
			p.RecordSWAbortBy(0, AbortConflict, 0, false)
			p.TxLifeCommit(PathSW, true)
		},
		func(p *Proc) {
			p.Elapse(100)
			p.NTWrite(0, 5)
		},
	})
	if m.out.want != 0 || len(m.out.subs) != 0 {
		t.Fatal("observer subscribed unexpectedly")
	}
}

// TestWriteKillsEveryReaderAscending: a store, a transactional store by
// an older transaction and a UFO install each kill all three hardware
// readers of the line, lowest processor first, on a machine whose record
// masks are one word and on one where the readers sit in both words with
// the writer's own (empty) bit between them. Each kill clears the
// victim's bit in the very record whose holders are being walked.
func TestWriteKillsEveryReaderAscending(t *testing.T) {
	writes := map[string]struct {
		write  func(p *Proc, age uint64)
		reason AbortReason
	}{
		"nt-write": {func(p *Proc, _ uint64) { p.NTWrite(0, 5) }, AbortNonTConflict},
		"tx-write": {func(p *Proc, age uint64) {
			p.BeginHW(age, true)
			if out := p.TxWrite(0, 5); out.Kind != OK {
				t.Errorf("the oldest transaction's store: %v", out.Kind)
			}
			p.CommitHW()
		}, AbortConflict},
		"set-ufo": {func(p *Proc, _ uint64) { p.SetUFO(0, mem.UFOFaultAll) }, AbortUFOKill},
	}
	for _, tc := range []struct {
		procs, writer int
		readers       [3]int
	}{
		{8, 4, [3]int{1, 3, 6}},
		{70, 65, [3]int{3, 64, 69}},
	} {
		for name, w := range writes {
			m := New(testParams(tc.procs))
			edges, _ := observeConflicts(m)
			ws := make([]func(*Proc), tc.procs)
			for i := range ws {
				ws[i] = func(*Proc) {}
			}
			for _, r := range tc.readers {
				ws[r] = func(p *Proc) {
					p.Elapse(10)
					if out := victimTx(p, false); out.Kind != HWAborted || out.Reason != w.reason {
						t.Errorf("%s at %d processors: reader %d ended %v/%v, want hw-aborted/%v", name, tc.procs, p.ID(), out.Kind, out.Reason, w.reason)
					}
				}
			}
			ws[tc.writer] = func(p *Proc) {
				age := m.NextAge() // drawn at cycle 0: older than every reader
				p.Elapse(500)
				if got := m.dir.Line(0).Readers(); got.Next(0) != tc.readers[0] || !got.AnyBut(tc.readers[0]) {
					t.Errorf("%s at %d processors: the readers' bits are not set", name, tc.procs)
				}
				w.write(p, age)
				if err := m.CheckConsistency(); err != nil {
					t.Errorf("%s at %d processors, after the kills: %v", name, tc.procs, err)
				}
			}
			m.Run(ws)
			var victims []int
			for _, e := range edges.events {
				if e.Peer != tc.writer || e.Reason != w.reason {
					t.Errorf("%s at %d processors: edge %+v, want aggressor %d and reason %v", name, tc.procs, e, tc.writer, w.reason)
				}
				victims = append(victims, e.Proc)
			}
			if !slices.Equal(victims, tc.readers[:]) {
				t.Errorf("%s at %d processors: killed %v, want %v in that order", name, tc.procs, victims, tc.readers)
			}
			if !m.dir.Line(0).Readers().Empty() {
				t.Errorf("%s at %d processors: SR bits outlived their transactions", name, tc.procs)
			}
		}
	}
}
