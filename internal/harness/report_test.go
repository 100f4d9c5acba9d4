package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/tm"
)

// sweepJobs is a small but representative job set: two workloads, a
// hybrid and a pure-software system, two thread counts.
func sweepJobs(t *testing.T, opt Options) []Job {
	t.Helper()
	var jobs []Job
	for _, name := range []string{"kmeans-low", "genome"} {
		f, ok := FindWorkload(name, ScaleSmall)
		if !ok {
			t.Fatalf("workload %q not found", name)
		}
		for _, sys := range []SystemKind{UFOHybrid, USTM} {
			for _, threads := range []int{1, 2} {
				jobs = append(jobs, Job{System: sys, Factory: f, Threads: threads, Opt: opt})
			}
		}
	}
	return jobs
}

// renderSection runs jobs on a workers-wide runner collecting into one
// Report and returns section s's full JSON document.
func renderSection(t *testing.T, workers int, jobs []Job, s Section) []byte {
	t.Helper()
	var rep Report
	r := Parallel(workers)
	r.Collect = rep.Collector()
	if _, err := r.Execute(jobs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sectionDeterministicAcrossWorkers is the acceptance criterion each
// section's test applies: the full document (per-cell payloads +
// aggregate) is byte-identical between a serial and a parallel sweep,
// and carries the section's schema tag.
func sectionDeterministicAcrossWorkers(t *testing.T, opt Options, s Section) {
	t.Helper()
	serial := renderSection(t, 1, sweepJobs(t, opt), s)
	parallel := renderSection(t, 8, sweepJobs(t, opt), s)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("%s differs between -parallel=1 and -parallel=8", string(s))
	}
	if !strings.Contains(string(serial), string(s)) {
		t.Fatal("report missing schema tag")
	}
}

// TestReportRoundTrip: for every section, a written document re-reads
// through the one reader and writes back the same bytes, with the cell
// payloads and the recomputed aggregate intact; any other schema string
// (another section's included) is rejected; and a cell that failed with
// no section collected still appears — key omitted, `null` accepted on
// read — so cell counts line up across documents.
func TestReportRoundTrip(t *testing.T) {
	opt := contentionOptions()
	opt.TxStats = true
	var rep Report
	r := Serial()
	r.Collect = rep.Collector()
	f, _ := FindWorkload("kmeans-low", ScaleSmall)
	if _, err := r.Execute([]Job{{System: USTM, Factory: f, Threads: 2, Opt: opt}}); err != nil {
		t.Fatal(err)
	}
	rep.Add(Result{System: TL2, Workload: "kmeans-low", Threads: 4, Err: errors.New("boom")})
	ran := rep.Cells[0]

	cases := []struct {
		name  string
		s     Section
		key   string
		other Section
		// same reports whether the re-read cell carries ran's payload.
		same func(back Cell, agg Cell) bool
	}{
		{"metrics", SectionMetrics, "metrics", SectionTxStats, func(back, agg Cell) bool {
			const m = tm.MetricSWCommits
			return back.Metrics != nil && back.Metrics.Counter(m) == ran.Metrics.Counter(m) &&
				agg.Metrics.Counter(m) == ran.Metrics.Counter(m) && ran.Metrics.Counter(m) > 0
		}},
		{"txstats", SectionTxStats, "txstats", SectionContention, func(back, agg Cell) bool {
			return back.TxStats != nil && back.TxStats.Committed == ran.TxStats.Committed &&
				agg.TxStats.Committed == ran.TxStats.Committed && ran.TxStats.Committed > 0
		}},
		{"contention", SectionContention, "contention", SectionMetrics, func(back, agg Cell) bool {
			return back.Contention != nil && back.Contention.Edges == ran.Contention.Edges &&
				agg.Contention.Edges == ran.Contention.Edges
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var first bytes.Buffer
			if err := rep.WriteJSON(&first, c.s); err != nil {
				t.Fatal(err)
			}
			doc := first.String()
			if !strings.Contains(doc, string(c.s)) {
				t.Fatalf("document missing schema tag %q", string(c.s))
			}
			// One section per document: the cell that ran carries this
			// section's key alone, the failed cell no section key at all.
			var shape struct {
				Cells []map[string]json.RawMessage `json:"cells"`
			}
			if err := json.Unmarshal(first.Bytes(), &shape); err != nil || len(shape.Cells) != 2 {
				t.Fatalf("cells = %d, err %v", len(shape.Cells), err)
			}
			for _, o := range cases {
				if _, has := shape.Cells[0][o.key]; has != (o.s == c.s) {
					t.Fatalf("%s document: cell that ran has %q = %v", c.name, o.key, has)
				}
				if _, has := shape.Cells[1][o.key]; has {
					t.Fatalf("%s document: failed cell carries %q", c.name, o.key)
				}
			}

			back, err := ReadReport(strings.NewReader(doc), c.s)
			if err != nil {
				t.Fatal(err)
			}
			if len(back.Cells) != 2 || back.Cells[0].Label() != "kmeans-low/ustm/2 threads" {
				t.Fatalf("round-tripped cells = %+v", back.Cells)
			}
			if !c.same(back.Cells[0], back.Aggregate()) {
				t.Fatalf("round-tripped payload differs: %+v", back.Cells[0])
			}
			if failed := back.Cells[1]; failed.Err != "boom" || failed.System != TL2 ||
				failed.Metrics != nil || failed.TxStats != nil || failed.Contention != nil {
				t.Fatalf("failed cell = %+v, want identity + err and no section", failed)
			}
			var second bytes.Buffer
			if err := back.WriteJSON(&second, c.s); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatal("write → read → write changed the bytes")
			}

			// The parent's writers spelled a missing section `null`.
			legacy := `{"schema":"` + string(c.s) + `","cells":[{"workload":"w","system":"tl2","threads":1,"err":"x","` + c.key + `":null}]}`
			if old, err := ReadReport(strings.NewReader(legacy), c.s); err != nil || len(old.Cells) != 1 || old.Cells[0].Err != "x" {
				t.Fatalf("null section: cells %+v, err %v", old, err)
			}
			if _, err := ReadReport(strings.NewReader(doc), c.other); err == nil {
				t.Fatalf("%s document accepted as %s", string(c.s), string(c.other))
			}
			if _, err := ReadReport(strings.NewReader(`{"schema":"bogus/v0","cells":[]}`), c.s); err == nil {
				t.Fatal("bogus schema accepted")
			}
		})
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, Section("typo/v1")); err == nil || buf.Len() != 0 {
		t.Fatalf("unknown section: err %v, %d bytes written", err, buf.Len())
	}
}
