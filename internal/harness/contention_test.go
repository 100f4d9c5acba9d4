package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/contention"
	"repro/internal/machine"
	"repro/internal/tm"
	"repro/internal/tmtest"
	"repro/internal/txstats"
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
// frozen report, and writes none of its totals as contention.* metrics.
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
	if m := res.Metrics.Get("contention.edges"); m != nil {
		t.Fatalf("contention.edges metric = %+v; the report is its only home", m)
	}
	if rep.WindowCycles != contention.WindowCycles || len(rep.HotLines) > contention.TopK {
		t.Fatalf("window = %d, %d hot lines", rep.WindowCycles, len(rep.HotLines))
	}
	// Disabled by default: no report, and nothing recorded.
	off := Run(UFOHybrid, f.New(), 2, testOptions())
	if off.Err != nil {
		t.Fatal(off.Err)
	}
	if off.Contention != nil {
		t.Fatal("contention report produced without Options.Contention")
	}
	if m := off.Metrics.Get("contention.edges"); m != nil {
		t.Fatalf("contention metrics leaked into a disabled run: %+v", m)
	}
}

// TestSectionsAreWrittenOnce: a count is written by the view that owns
// it and nowhere else. With both observers on, on every system, no cell
// writes a txstats.* or contention.* metric (the txstats and contention
// sections hold those totals), and the contention section carries no
// "cm" object (the cm.* metrics hold the backoff decisions).
func TestSectionsAreWrittenOnce(t *testing.T) {
	opt := contentionOptions()
	opt.TxStats = true
	f, _ := FindWorkload("kmeans-high", ScaleSmall)
	var jobs []Job
	for _, sys := range AllSystems {
		threads := 2
		if sys == Sequential {
			threads = 1
		}
		jobs = append(jobs, Job{System: sys, Factory: f, Threads: threads, Opt: opt})
	}
	var rep Report
	r := Parallel(1)
	r.Collect = rep.Collector()
	if _, err := r.Execute(jobs); err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		for _, m := range c.Metrics.Metrics {
			if strings.HasPrefix(m.Name, "txstats.") || strings.HasPrefix(m.Name, "contention.") {
				t.Errorf("%s: metric %s repeats a section's total", c.Label(), m.Name)
			}
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, SectionContention); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"cm":`)) {
		t.Error("the contention section has a \"cm\" key")
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
// the tx-commit events beside them, in two recording observers.
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
	m.Observe(machine.KindSet(machine.TraceTxCommit), commits)
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

// tally is the lifecycle part of machine.Counters: what the TxLife*
// emitters count.
type tally struct {
	Begun, HWCommits, SWCommits, SWAborts, RetryWaits uint64
	AttemptsByPath, CommitsByPath                     [machine.NumTxPaths]uint64
	Aborts                                            [machine.NumTxPaths][machine.NumAbortReasons]uint64
}

func tallyOf(c *machine.Counters) tally {
	return tally{Begun: c.Begun, HWCommits: c.HWCommits, SWCommits: c.SWCommits, SWAborts: c.SWAborts,
		RetryWaits: c.RetryWaits, AttemptsByPath: c.AttemptsByPath, CommitsByPath: c.CommitsByPath, Aborts: c.Aborts}
}

// lifeCount counts the raw lifecycle events of a run into a tally of its
// own. An abort event does not say whether its attempt ran in hardware:
// hwPath does, for the system that ran.
type lifeCount struct {
	t      tally
	hwPath func(machine.TxPath) bool
}

func (l *lifeCount) Event(e machine.TraceEvent) {
	t := &l.t
	switch e.Kind {
	case machine.TraceTxBegin:
		t.Begun++
	case machine.TraceTxAttempt:
		t.AttemptsByPath[e.Path]++
	case machine.TraceTxAbort:
		t.Aborts[e.Path][e.Reason]++
		if !l.hwPath(e.Path) {
			t.SWAborts++
		}
	case machine.TraceTxRetryWait:
		t.RetryWaits++
	case machine.TraceTxCommit:
		t.CommitsByPath[e.Path]++
		if e.SW() {
			t.SWCommits++
		} else {
			t.HWCommits++
		}
	}
}

// TestViewsCountTheLifecycle: the machine's lifecycle tally counts what
// the event stream says happened, and every view of a run's transactions
// reads it — txstats, contention, the Chrome tx spans, the tm.* metrics
// and machine.hw_commits — on every system's kmeans-high cell and on the
// retry queue, where Retry waits are frequent. machine.hw_aborts.*, which
// the hardware counts as it retires each abort, equals the tally's
// hardware-path aborts by reason but for three named cases:
//   - the unbounded HTM's Retry unwinds a hardware attempt that the
//     driver's retry-until-commit loop marks as a Retry wait, not an
//     abort;
//   - hybrid-norec marks a hardware Retry as an abort for reason none
//     (its RetryReason), where the hardware retired an explicit abort;
//   - on ufo-hybrid's retry-queue cell a peer's kill can land during the
//     UFO fault handler's stall, and the handler unwinds with ufo-fault
//     while the hardware retires the kill's reason.
//
// global-lock and sle pin seq's Retry: a wait, not a software abort.
func TestViewsCountTheLifecycle(t *testing.T) {
	f, _ := FindWorkload("kmeans-high", ScaleSmall)
	opt := contentionOptions()
	opt.TxStats = true
	var jobs []Job
	for _, kind := range AllSystems {
		threads := 8 // where sle fails over to its lock
		if kind == Sequential {
			threads = 1
		}
		jobs = append(jobs, Job{System: kind, Factory: f, Threads: threads, Opt: opt})
	}
	for _, kind := range append(retryPathSystems, GlobalLock, SLE, UnboundedHTM, HybridNOrec) {
		jobs = append(jobs, retryQueueJob(kind))
	}
	for _, j := range jobs {
		name := fmt.Sprintf("%s/%s", j.Factory.Name, j.System)
		// Only the unbounded HTM retries on a hardware fallback path (the
		// token holder's); everyone else's fallback is seq's lock.
		life := &lifeCount{hwPath: func(p machine.TxPath) bool {
			return p == machine.PathHTM || p == machine.PathFallback && j.System == UnboundedHTM
		}}
		var trace bytes.Buffer
		sink := machine.NewChromeSink(&trace)
		var counts *machine.Counters
		j.Observe = func(m *machine.Machine) {
			m.Observe(machine.ChromeKinds, sink)
			m.Observe(lifeKinds, life)
			counts = &m.Count
		}
		results, err := Parallel(1).Execute([]Job{j})
		if err == nil {
			err = sink.Close()
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, want := results[0], life.t
		if got := tallyOf(counts); got != want {
			t.Errorf("%s: tally %+v\nevents %+v", name, got, want)
		}
		if want.Begun == 0 || want.Begun != want.HWCommits+want.SWCommits {
			t.Errorf("%s: %d begun, %d committed: want every transaction to commit", name, want.Begun, want.HWCommits+want.SWCommits)
		}
		checkTxStatsView(t, name, r.TxStats, want)

		c := r.Contention
		var winHW, winSW uint64
		for _, w := range c.Windows {
			winHW, winSW = winHW+w.HWCommits, winSW+w.SWCommits
		}
		if c.HWCommits != want.HWCommits || c.SWCommits != want.SWCommits || winHW != want.HWCommits || winSW != want.SWCommits {
			t.Errorf("%s: contention commits hw %d sw %d, windows hw %d sw %d, tally hw %d sw %d",
				name, c.HWCommits, c.SWCommits, winHW, winSW, want.HWCommits, want.SWCommits)
		}
		checkChromeView(t, name, trace.Bytes(), want)

		for metric, n := range map[string]uint64{
			tm.MetricHWCommits: want.HWCommits, machine.MetricHWCommits: want.HWCommits,
			tm.MetricSWCommits: want.SWCommits, tm.MetricSWAborts: want.SWAborts, tm.MetricRetries: want.RetryWaits,
		} {
			if got := r.Metrics.Counter(metric); got != n {
				t.Errorf("%s: %s = %d, tally %d", name, metric, got, n)
			}
		}

		if j.System == UFOHybrid && j.Factory.Name == "retry-queue" {
			continue
		}
		var hwAborts [machine.NumAbortReasons]uint64
		for p := range want.Aborts {
			if life.hwPath(machine.TxPath(p)) {
				for reason, n := range want.Aborts[p] {
					hwAborts[reason] += n
				}
			}
		}
		switch j.System {
		case UnboundedHTM:
			hwAborts[machine.AbortExplicit] += want.RetryWaits
		case HybridNOrec:
			hwAborts[machine.AbortExplicit] += hwAborts[machine.AbortNone]
		}
		for reason := machine.AbortReason(1); int(reason) < machine.NumAbortReasons; reason++ {
			if got := r.Machine.HWAbortsByReason[reason]; got != hwAborts[reason] {
				t.Errorf("%s: machine.hw_aborts.%s = %d, tally's hardware aborts %d", name, reason, got, hwAborts[reason])
			}
		}
	}
}

// checkTxStatsView checks the txstats report's counts against the tally.
func checkTxStatsView(t *testing.T, name string, rep *txstats.Report, want tally) {
	t.Helper()
	var attempts, commits [machine.NumTxPaths]uint64
	for _, pc := range rep.AttemptsByPath {
		p, _ := machine.TxPathByName(pc.Path)
		attempts[p] = pc.Count
	}
	for _, pc := range rep.CommitsByPath {
		p, _ := machine.TxPathByName(pc.Path)
		commits[p] = pc.Count
	}
	var aborts [machine.NumTxPaths][machine.NumAbortReasons]uint64
	for _, b := range rep.Aborts {
		p, _ := machine.TxPathByName(b.Path)
		reason, _ := machine.AbortReasonByName(b.Reason)
		aborts[p][reason] = b.Count
	}
	if rep.Begun != want.Begun || rep.Committed != want.HWCommits+want.SWCommits || rep.RetryWaits != want.RetryWaits ||
		attempts != want.AttemptsByPath || commits != want.CommitsByPath || aborts != want.Aborts {
		t.Errorf("%s: txstats begun %d committed %d retry waits %d attempts %v commits %v aborts %v\ntally %+v",
			name, rep.Begun, rep.Committed, rep.RetryWaits, attempts, commits, aborts, want)
	}
}

// checkChromeView checks the Chrome trace's tx spans against the tally:
// one span per commit, and their attempts and aborts by reason.
func checkChromeView(t *testing.T, name string, trace []byte, want tally) {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string
			Args struct {
				Attempts uint64
				Aborts   map[string]uint64
			}
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("%s: chrome trace: %v", name, err)
	}
	var spans, attempts, wantAttempts uint64
	var aborts, wantAborts [machine.NumAbortReasons]uint64
	for _, e := range doc.TraceEvents {
		if e.Name != "tx" {
			continue
		}
		spans++
		attempts += e.Args.Attempts
		for r, n := range e.Args.Aborts {
			reason, _ := machine.AbortReasonByName(r)
			aborts[reason] += n
		}
	}
	for p := range want.Aborts {
		wantAttempts += want.AttemptsByPath[p]
		for reason := 1; reason < machine.NumAbortReasons; reason++ { // spans name no reason none
			wantAborts[reason] += want.Aborts[p][reason]
		}
	}
	if spans != want.HWCommits+want.SWCommits || attempts != wantAttempts || aborts != wantAborts {
		t.Errorf("%s: chrome spans %d, attempts %d, aborts %v; tally %d, %d, %v",
			name, spans, attempts, aborts, want.HWCommits+want.SWCommits, wantAttempts, wantAborts)
	}
}
