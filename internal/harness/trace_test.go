package harness

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/machine"
	"repro/internal/stamp"
	"repro/internal/tmtest"
)

// traceSink is what the three machine sinks have in common.
type traceSink interface {
	machine.Observer
	io.Closer
}

var traceSinks = []struct {
	format string
	open   func(io.Writer) traceSink
}{
	{"text", func(w io.Writer) traceSink { return machine.NewTextSink(w) }},
	{"jsonl", func(w io.Writer) traceSink { return machine.NewJSONLSink(w) }},
	{"chrome", func(w io.Writer) traceSink { return machine.NewChromeSink(w) }},
}

// tracedJob is the cell `tmsim -scale small -trace-out … -trace-workload
// <workload> -trace-system <system> -trace-threads 2` runs, with sink
// subscribed to the printed kinds the way tmsim subscribes it.
func tracedJob(t *testing.T, workload string, system SystemKind, sink machine.Observer) Job {
	t.Helper()
	f, ok := FindWorkload(workload, ScaleSmall)
	if !ok {
		t.Fatalf("no workload %q", workload)
	}
	opt := DefaultOptions()
	opt.Params.Seed = 1 // the tmsim -seed default
	return Job{System: system, Factory: f, Threads: 2, Opt: opt,
		Observe: func(m *machine.Machine) { m.Observe(machine.TraceKinds, sink) }}
}

// TestTracedJobReproducesRingExport: a sink subscribed through
// Job.Observe and run by Runner.Execute writes, in each of the three
// formats, the bytes the trace ring's after-the-run export wrote for the
// same cell. The goldens are the ring's: they were written by tmsim at
// a5efdb9, the last commit that had one (vacation-high, ufo-hybrid, 2
// threads, -scale small, 200 events) — so -update is only for a change
// that means to move the trace.
func TestTracedJobReproducesRingExport(t *testing.T) {
	for _, s := range traceSinks {
		t.Run(s.format, func(t *testing.T) {
			var got bytes.Buffer
			sink := s.open(&got)
			if _, err := Parallel(1).Execute([]Job{tracedJob(t, "vacation-high", UFOHybrid, sink)}); err != nil {
				t.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "trace_small."+s.format+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s trace differs from the ring's export (%d bytes, want %d)", s.format, got.Len(), len(want))
			}
		})
	}
}

// TestParallelJobsKeepTheirOwnTraces: an observer is per Job, so two
// traced cells running at once under Parallel(2) each write their own
// sink, and each writes what it writes run alone (go test -race runs
// this too: the sinks share nothing).
func TestParallelJobsKeepTheirOwnTraces(t *testing.T) {
	cells := []struct {
		workload string
		system   SystemKind
	}{{"vacation-high", UFOHybrid}, {"kmeans-high", USTMUFO}}
	for _, s := range traceSinks {
		run := func(r *Runner, which ...int) [][]byte {
			bufs := make([]bytes.Buffer, len(which))
			sinks := make([]traceSink, len(which))
			jobs := make([]Job, len(which))
			for i, c := range which {
				sinks[i] = s.open(&bufs[i])
				jobs[i] = tracedJob(t, cells[c].workload, cells[c].system, sinks[i])
			}
			if _, err := r.Execute(jobs); err != nil {
				t.Fatal(err)
			}
			out := make([][]byte, len(which))
			for i := range which {
				if err := sinks[i].Close(); err != nil {
					t.Fatal(err)
				}
				out[i] = bufs[i].Bytes()
			}
			return out
		}
		together := run(Parallel(2), 0, 1)
		for c := range cells {
			if alone := run(Parallel(1), c)[0]; len(alone) == 0 || !bytes.Equal(together[c], alone) {
				t.Errorf("%s, %s on %s: %d bytes traced beside another cell, %d alone",
					s.format, cells[c].workload, cells[c].system, len(together[c]), len(alone))
			}
		}
	}
}

// TestLiveStreamEndsFollowTheirBegins is why the Chrome sink needs no
// arm for an end without a begin: on every system, over the Figure 5
// workloads, the open-loop service and the syscall failover, each hw/sw commit or abort follows a begin on its processor,
// each tx-commit a tx-begin, and no tx-begin arrives inside an open
// transaction. (A begin inside an open attempt is legal — a USTM Retry
// wake-up — and the sink's one remaining truncation arm.)
func TestLiveStreamEndsFollowTheirBegins(t *testing.T) {
	factories := append(Benchmarks(ScaleSmall), OLTPBenchmark(ScaleSmall),
		WorkloadFactory{Name: "failover", New: func() stamp.Workload { return stamp.NewFailover(12, 20) }})
	for _, f := range factories {
		for _, kind := range AllSystems {
			threads := 4
			if kind == Sequential {
				threads = 1
			}
			var log tmtest.EventLog
			_, err := Parallel(1).Execute([]Job{{System: kind, Factory: f, Threads: threads, Opt: testOptions(),
				Observe: func(m *machine.Machine) { m.Observe(machine.TraceKinds, &log) }}})
			if err != nil {
				t.Fatal(err)
			}
			attempt, tx := make([]bool, threads), make([]bool, threads)
			for _, e := range log.Events {
				switch e.Kind {
				case machine.TraceHWBegin, machine.TraceSWBegin:
					attempt[e.Proc] = true
				case machine.TraceHWCommit, machine.TraceSWCommit, machine.TraceHWAbort, machine.TraceSWAbort:
					if !attempt[e.Proc] {
						t.Fatalf("%s on %s: %v with no attempt open", f.Name, kind, e)
					}
					attempt[e.Proc] = false
				case machine.TraceTxBegin, machine.TraceTxCommit:
					if begin := e.Kind == machine.TraceTxBegin; tx[e.Proc] == begin {
						t.Fatalf("%s on %s: %v with a transaction open: %v", f.Name, kind, e, tx[e.Proc])
					}
					tx[e.Proc] = !tx[e.Proc]
				}
			}
		}
	}
}
