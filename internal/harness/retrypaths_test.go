package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/stamp"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// retryQueue is examples/retrywait's shape, small: two producers and two
// consumers move retryItems values through a two-slot txlib.Queue, so
// both sides block in Retry. A fifth processor, outside any transaction,
// loads the head and tail words and stores to a spare word on each of
// their lines until the four are done, so its stores meet lines held by
// retrying (descheduled) and by running transactions. It gives up at
// proberCycles, so a run whose workers never finish ends as a deadlock
// rather than spinning forever.
type retryQueue struct {
	q          txlib.Queue
	head, tail uint64
	done       int // workers finished: the prober stops at four
	seen       map[uint64]int
}

const (
	retryItems   = 40
	proberCycles = 50_000_000 // ~17× the longest run's
)

func (w *retryQueue) Init(m *machine.Machine, _ int) {
	a := txlib.NewArena(m, nil, 1<<12)
	w.q = txlib.NewQueue(txlib.Direct{M: m}, a, 2)
	// NewQueue allocates the head's line, then the tail's, from a fresh
	// arena.
	w.tail = w.q.TailAddr()
	w.head = w.tail - mem.LineBytes
	w.seen = map[uint64]int{}
}

func (w *retryQueue) Thread(i int, ex tm.Exec) {
	p := ex.Proc()
	pause := func(base, spread int) { p.Elapse(uint64(base + p.Rand().Intn(spread))) }
	switch i {
	case 0, 1:
		for v := i*retryItems/2 + 1; v <= (i+1)*retryItems/2; v++ {
			val := uint64(v)
			ex.Atomic(func(tx tm.Tx) { w.q.Push(tx, val) })
			pause(30, 80)
		}
	case 2, 3:
		for n := 0; n < retryItems/2; n++ {
			var v uint64
			ex.Atomic(func(tx tm.Tx) { v = w.q.Pop(tx) })
			w.seen[v]++
			pause(30, 80)
		}
	default:
		for w.done < 4 && p.Now() < proberCycles {
			h, t := ex.Load(w.head), ex.Load(w.tail)
			ex.Store(w.head+8, h)
			ex.Store(w.tail+8, t)
			pause(200, 400)
		}
		return
	}
	w.done++
}

func (w *retryQueue) Validate(*machine.Machine) error {
	for v := uint64(1); v <= retryItems; v++ {
		if w.seen[v] != 1 {
			return fmt.Errorf("value %d consumed %d times", v, w.seen[v])
		}
	}
	return nil
}

// retryReach counts, from the event stream, the USTM branches that only
// retrying transactions reach.
type retryReach struct {
	m      *machine.Machine
	prober int
	// maskedHW: a hardware access that faulted on UFO protection and went
	// on (its attempt faulted again or committed before any abort) — the
	// UFO hybrid's handler found every owner retrying.
	maskedHW int
	// maskedNT: a store of the prober that landed on a line whose
	// protection faults writes — it completed with faults masked.
	maskedNT int
	// woken: a Retry that ended with no kill of its transaction. Under a
	// weakly-atomic USTM (ustm, hytm's software path) nothing else wakes
	// a retrier but the commit or abort of a transaction that stole its
	// ownership, so there each one is a steal from a retrier.
	woken int
	// ownerAborts: a hardware attempt aborted explicitly on behalf of
	// another processor — HyTM's barrier naming a software owner.
	ownerAborts int

	inHW, faulted, killed []bool
}

func newRetryReach(m *machine.Machine, procs int) *retryReach {
	return &retryReach{m: m, prober: procs - 1, inHW: make([]bool, procs),
		faulted: make([]bool, procs), killed: make([]bool, procs)}
}

func (r *retryReach) Event(e machine.TraceEvent) {
	p := e.Proc
	switch e.Kind {
	case machine.TraceHWBegin:
		r.inHW[p], r.faulted[p] = true, false
	case machine.TraceHWAbort:
		r.inHW[p], r.faulted[p] = false, false
	case machine.TraceHWCommit:
		if r.faulted[p] {
			r.maskedHW++
		}
		r.inHW[p], r.faulted[p] = false, false
	case machine.TraceUFOFault:
		if r.inHW[p] {
			if r.faulted[p] {
				r.maskedHW++
			}
			r.faulted[p] = true
		}
	case machine.TraceMemWrite:
		if p == r.prober && r.m.Mem.Faults(e.Addr, true) {
			r.maskedNT++
		}
	case machine.TraceConflict:
		if e.SW() {
			r.killed[p] = true
		} else if e.Reason == machine.AbortExplicit && e.Peer >= 0 && e.Peer != p {
			r.ownerAborts++
		}
	case machine.TraceTxAttempt:
		r.killed[p] = false
	case machine.TraceTxRetryWait:
		if !r.killed[p] {
			r.woken++
		}
	}
}

// retryPathSystems are the systems whose Retry reaches USTM: phtm is
// left out for its Retry livelock (DESIGN.md §38).
var retryPathSystems = []SystemKind{UFOHybrid, USTMUFO, USTM, HyTM}

// retryQueueJob is the retry queue's cell on kind: five processors, seed
// 1, with both lifecycle reports on.
func retryQueueJob(kind SystemKind) Job {
	opt := DefaultOptions()
	opt.Params.Seed = 1
	opt.Params.MaxSteps = 20_000_000
	opt.TxStats, opt.Contention = true, true
	return Job{System: kind, Threads: retryThreads, Opt: opt,
		Factory: WorkloadFactory{Name: "retry-queue", New: func() stamp.Workload { return new(retryQueue) }}}
}

// retryThreads is the retry queue's processor count: four workers and
// the prober.
const retryThreads = 5

// goldenPart is out as it is, or its SHA-256 when it is over 50 KB.
func goldenPart(out []byte) string {
	if len(out) <= 50_000 {
		return string(out)
	}
	return fmt.Sprintf("sha256 %x (%d bytes)\n", sha256.Sum256(out), len(out))
}

// TestRetryPathsGolden pins the bytes of every run that reaches USTM's
// Retry: the queue shape above on each retry-path system, with its jsonl
// trace, its txstats and contention reports and its Stats line. No tmsim experiment and
// no litmus program reaches these branches, so without this test a
// change to them would keep every other output's bytes. The golden was
// captured before the branches were last rewritten; -update is only for
// a change that means to move them. The run must also show, by event,
// that each branch the golden pins ran at least once.
func TestRetryPathsGolden(t *testing.T) {
	var got strings.Builder
	var maskedHW, maskedNT, steals, ownerAborts int
	for _, kind := range retryPathSystems {
		var trace bytes.Buffer
		sink := machine.NewJSONLSink(&trace)
		var reach *retryReach
		job := retryQueueJob(kind)
		job.Observe = func(m *machine.Machine) {
			m.Observe(machine.TraceKinds, sink)
			reach = newRetryReach(m, retryThreads)
			m.Observe(machine.AllKinds, reach)
		}
		res, err := Parallel(1).Execute([]Job{job})
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %s\nstats: %s\n", kind, res[0].Stats.String())
		var rep Report
		rep.Add(res[0])
		for _, sec := range []Section{SectionTxStats, SectionContention} {
			var doc bytes.Buffer
			if err := rep.WriteJSON(&doc, sec); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "-- %s\n%s", sec, goldenPart(doc.Bytes()))
		}
		fmt.Fprintf(&got, "-- trace.jsonl\n%s", goldenPart(trace.Bytes()))
		t.Logf("%s: %d masked hardware accesses, %d masked NT stores, %d unkilled retry wakes, %d owner-named aborts; %s",
			kind, reach.maskedHW, reach.maskedNT, reach.woken, reach.ownerAborts, res[0].Stats.String())
		maskedHW += reach.maskedHW
		maskedNT += reach.maskedNT
		if kind == USTM || kind == HyTM {
			steals += reach.woken
		}
		if kind == HyTM {
			ownerAborts += reach.ownerAborts
		}
	}
	if maskedHW == 0 || maskedNT == 0 || steals == 0 || ownerAborts == 0 {
		t.Errorf("a branch never ran: %d masked hardware accesses, %d masked NT stores, %d steals from retriers, %d HyTM aborts naming a software owner",
			maskedHW, maskedNT, steals, ownerAborts)
	}

	golden := filepath.Join("testdata", "retry_paths.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("retry-path output drifted from the golden capture.\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}
}
