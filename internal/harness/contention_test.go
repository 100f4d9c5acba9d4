package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/contention"
	"repro/internal/machine"
	"repro/internal/tm"
	"repro/internal/tmtest"
)

// contentionOptions is testOptions with conflict attribution enabled.
func contentionOptions() Options {
	opt := testOptions()
	opt.Contention = true
	return opt
}

// TestReportContentionSectionDeterministicAcrossWorkers is the acceptance
// criterion beside TestReportMetricsSectionDeterministicAcrossWorkers: the full
// contention JSON (per-cell reports + aggregate) must be byte-identical
// between a serial and a parallel sweep.
func TestReportContentionSectionDeterministicAcrossWorkers(t *testing.T) {
	sectionDeterministicAcrossWorkers(t, contentionOptions(), SectionContention)
}

// TestRunContention: a harness run with attribution enabled returns a
// frozen report whose totals also appear as contention.* metrics.
func TestRunContention(t *testing.T) {
	f, _ := FindWorkload("kmeans-low", ScaleSmall)
	res := Run(UFOHybrid, f.New(), 2, contentionOptions())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	rep := res.Contention
	if rep == nil {
		t.Fatal("Result.Contention is nil with Options.Contention set")
	}
	if m := res.Metrics.Get("contention.edges"); m == nil || m.Value != rep.Edges {
		t.Fatalf("contention.edges metric = %+v, report says %d", m, rep.Edges)
	}
	if rep.WindowCycles != contention.WindowCycles || len(rep.HotLines) > contention.TopK {
		t.Fatalf("window = %d, %d hot lines", rep.WindowCycles, len(rep.HotLines))
	}
	// Disabled by default: no report, and nothing recorded.
	off := Run(UFOHybrid, f.New(), 2, testOptions())
	if off.Contention != nil {
		t.Fatal("contention report produced without Options.Contention")
	}
	if m := off.Metrics.Get("contention.edges"); m != nil {
		t.Fatalf("contention metrics leaked into a disabled run: %+v", m)
	}
}

// TestContentionRenderLabelsCells: both renderers label cells with
// their sweep coordinates (HTML staying self-contained).
func TestContentionRenderLabelsCells(t *testing.T) {
	var rep Report
	r := Parallel(1)
	r.Collect = rep.Collector()
	f, _ := FindWorkload("kmeans-low", ScaleSmall)
	if _, err := r.Execute([]Job{{System: USTM, Factory: f, Threads: 2, Opt: contentionOptions()}}); err != nil {
		t.Fatal(err)
	}
	var text, html bytes.Buffer
	if err := contention.WriteText(&text, rep.ContentionCells()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "kmeans-low/ustm/2 threads") {
		t.Fatalf("text report missing cell label:\n%s", text.String())
	}
	if err := contention.WriteHTML(&html, rep.ContentionCells()); err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"http://", "https://", "<script", "src=", "href="} {
		if strings.Contains(html.String(), banned) {
			t.Errorf("HTML report is not self-contained: found %q", banned)
		}
	}
}

// --- Per-system collision attribution ---

// collider is a deterministic two-proc collision: every transaction
// read-modify-writes the same cache line around a long compute window, so
// concurrent transactions overlap and conflict. With syscall set, thread
// 0 marks a system call each attempt, forcing hybrids into their software
// path (exercising UFO kills and cross-mode conflicts).
type collider struct {
	iters   int
	syscall bool
	addr    uint64
	threads int
}

func (c *collider) Name() string { return "collider" }

func (c *collider) Init(m *machine.Machine, threads int) {
	c.addr = m.Mem.Sbrk(64)
	c.threads = threads
}

func (c *collider) Thread(i int, ex tm.Exec) {
	for k := 0; k < c.iters; k++ {
		ex.Atomic(func(tx tm.Tx) {
			if c.syscall && i == 0 {
				tx.Syscall()
			}
			v := tx.Load(c.addr)
			ex.Proc().Elapse(200)
			tx.Store(c.addr, v+1)
		})
	}
}

func (c *collider) Validate(m *machine.Machine) error {
	want := uint64(c.threads * c.iters)
	if got := m.Mem.Read64(c.addr); got != want {
		return fmt.Errorf("collider count = %d, want %d", got, want)
	}
	return nil
}

// edgeLog captures raw conflict events for tuple-level validation, and
// the commit events beside them, in two recording observers.
type edgeLog struct {
	edges   []machine.TraceEvent
	commits uint64
}

// runCollider runs the collider on kind with two procs and raw event
// logs subscribed, returning what they saw and the machine.
func runCollider(t *testing.T, kind SystemKind, syscall bool) (*edgeLog, *machine.Machine) {
	t.Helper()
	opt := testOptions()
	params := opt.Params
	params.Procs = 2
	m := machine.New(params)
	edges, commits := new(tmtest.EventLog), new(tmtest.EventLog)
	m.Observe(machine.KindSet(machine.TraceConflict), edges)
	m.Observe(machine.KindSet(machine.TraceHWCommit, machine.TraceSWCommitted), commits)
	sys := Build(kind, m, opt)
	wl := &collider{iters: 12, syscall: syscall}
	wl.Init(m, 2)
	bodies := make([]func(*machine.Proc), 2)
	for i := 0; i < 2; i++ {
		ex := sys.Exec(m.Proc(i))
		tid := i
		bodies[i] = func(*machine.Proc) { wl.Thread(tid, ex) }
	}
	m.Run(bodies)
	if err := wl.Validate(m); err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return &edgeLog{edges: edges.Events, commits: uint64(len(commits.Events))}, m
}

// checkEdges validates every recorded tuple: processors in range, a real
// abort reason, a cycle within the run, and (when present) an address
// inside simulated memory.
func checkEdges(t *testing.T, kind SystemKind, log *edgeLog, m *machine.Machine) {
	t.Helper()
	for _, e := range log.edges {
		if e.Proc < 0 || e.Proc >= 2 {
			t.Errorf("%s: victim out of range: %+v", kind, e)
		}
		if e.Peer < -1 || e.Peer >= 2 {
			t.Errorf("%s: aggressor out of range: %+v", kind, e)
		}
		if e.Reason == machine.AbortNone || int(e.Reason) >= machine.NumAbortReasons {
			t.Errorf("%s: bad reason: %+v", kind, e)
		}
		if e.Cycle == 0 || e.Cycle > m.Cycles() {
			t.Errorf("%s: cycle outside run: %+v (machine ran %d)", kind, e, m.Cycles())
		}
		if e.HasAddr() && e.Addr >= m.MemBytes {
			t.Errorf("%s: address outside memory: %+v", kind, e)
		}
	}
}

// TestColliderEdgesPerSystem: every Figure 5 system under a forced
// two-proc collision emits well-formed attribution edges, and exactly
// one commit is recorded per completed transaction.
func TestColliderEdgesPerSystem(t *testing.T) {
	for _, kind := range Figure5Systems {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			log, m := runCollider(t, kind, false)
			checkEdges(t, kind, log, m)
			if len(log.edges) == 0 {
				t.Fatalf("%s: collider produced no conflict edges", kind)
			}
			if total := log.commits; total != 24 {
				t.Fatalf("%s: %d commits recorded, want 24 (2 threads × 12)", kind, total)
			}
		})
	}
}

// TestColliderHWKillEdges: the pure-HTM collision attributes
// hardware conflict aborts with the conflicting line.
func TestColliderHWKillEdges(t *testing.T) {
	log, m := runCollider(t, UnboundedHTM, false)
	checkEdges(t, UnboundedHTM, log, m)
	found := false
	for _, e := range log.edges {
		if e.Reason == machine.AbortConflict && !e.SW() && e.HasAddr() {
			found = true
		}
	}
	if !found {
		t.Fatalf("no HW conflict edge with address; edges = %+v", log.edges)
	}
}

// TestColliderSWKillEdges: the pure-STM collision attributes software
// conflict kills (SW flag, killer→victim, conflicting line).
func TestColliderSWKillEdges(t *testing.T) {
	for _, kind := range []SystemKind{USTM, TL2} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			log, m := runCollider(t, kind, false)
			checkEdges(t, kind, log, m)
			found := false
			for _, e := range log.edges {
				if e.SW() {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: no SW conflict edge; edges = %+v", kind, log.edges)
			}
		})
	}
}

// TestColliderUFOKillEdges: with thread 0 forced into the software path,
// the UFO hybrid's strong-atomicity barriers kill thread 1's hardware
// transactions — those kills must surface as ufo-kill edges.
func TestColliderUFOKillEdges(t *testing.T) {
	log, m := runCollider(t, UFOHybrid, true)
	checkEdges(t, UFOHybrid, log, m)
	found := false
	for _, e := range log.edges {
		if e.Reason == machine.AbortUFOKill && e.HasAddr() {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ufo-kill edge; edges = %+v", log.edges)
	}
}

// TestAllObserversMatchBareRun: a Job.Observe event log, the contention
// profile and the txstats recorder subscribed to one machine observe the
// run without moving it — cycles, machine counters and TM stats equal
// the bare run's on a contended cell of every Figure 5 system — and the
// three views agree on the stream they share: one contention edge per
// hardware abort the log saw, one txstats commit per tx-commit.
func TestAllObserversMatchBareRun(t *testing.T) {
	f, _ := FindWorkload("kmeans-high", ScaleSmall)
	for _, kind := range Figure5Systems {
		bare := Run(kind, f.New(), 4, testOptions())
		opt := contentionOptions()
		opt.TxStats = true
		var log tmtest.EventLog
		results, err := Parallel(1).Execute([]Job{{System: kind, Factory: f, Threads: 4, Opt: opt,
			Observe: func(m *machine.Machine) { m.Observe(machine.TraceKinds, &log) }}})
		if bare.Err != nil || err != nil {
			t.Fatalf("%s: %v / %v", kind, bare.Err, err)
		}
		all := results[0]
		if all.Cycles != bare.Cycles || all.Machine != bare.Machine || all.Stats != bare.Stats {
			t.Errorf("%s: observed run differs from the bare run:\n%d cycles %+v %+v\n%d cycles %+v %+v",
				kind, all.Cycles, all.Machine, all.Stats, bare.Cycles, bare.Machine, bare.Stats)
		}
		var hwAborts, txCommits uint64
		for _, e := range log.Events {
			switch e.Kind {
			case machine.TraceHWAbort:
				hwAborts++
			case machine.TraceTxCommit:
				txCommits++
			}
		}
		if hwEdges := all.Contention.Edges - all.Contention.SWEdges; hwEdges != hwAborts {
			t.Errorf("%s: %d hardware conflict edges, log saw %d hw-aborts", kind, hwEdges, hwAborts)
		}
		if all.TxStats.Committed != txCommits {
			t.Errorf("%s: txstats committed %d, log saw %d tx-commits", kind, all.TxStats.Committed, txCommits)
		}
	}
}
