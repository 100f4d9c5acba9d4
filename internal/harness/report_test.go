package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/contention"
	"repro/internal/tm"
	"repro/internal/txstats"
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

// TestReportRoundTrip: for every section, a written document decodes with
// encoding/json to the payloads it was written from, per cell and in the
// aggregate; the cell that ran carries that section alone; and a cell
// that failed with no section collected still appears — identity and
// error, no section key — so cell counts line up across documents.
func TestReportRoundTrip(t *testing.T) {
	opt := contentionOptions()
	opt.TxStats = true
	var rep Report
	r := Parallel(1)
	r.Collect = rep.Collector()
	f, _ := FindWorkload("kmeans-low", ScaleSmall)
	if _, err := r.Execute([]Job{{System: USTM, Factory: f, Threads: 2, Opt: opt}}); err != nil {
		t.Fatal(err)
	}
	rep.Add(Result{System: TL2, Workload: "kmeans-low", Threads: 4, Err: errors.New("boom")})
	ran := rep.Cells[0]

	decode := func(raw json.RawMessage, v any) {
		t.Helper()
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
	}
	// counter reads one counter out of an encoded obs.Snapshot.
	counter := func(raw json.RawMessage, name string) uint64 {
		var snap struct {
			Metrics []struct {
				Name  string
				Value float64 // a gauge's value need not be whole
			}
		}
		decode(raw, &snap)
		for _, m := range snap.Metrics {
			if m.Name == name {
				return uint64(m.Value)
			}
		}
		return 0
	}
	cases := []struct {
		name string
		s    Section
		key  string
		// same reports whether the decoded cell and aggregate carry
		// ran's payload.
		same func(cell, agg json.RawMessage) bool
	}{
		{"metrics", SectionMetrics, "metrics", func(cell, agg json.RawMessage) bool {
			const m = tm.MetricSWCommits
			want := ran.Metrics.Counter(m)
			return want > 0 && counter(cell, m) == want && counter(agg, m) == want
		}},
		{"txstats", SectionTxStats, "txstats", func(cell, agg json.RawMessage) bool {
			var c, a txstats.Report
			decode(cell, &c)
			decode(agg, &a)
			return ran.TxStats.Committed > 0 && c.Committed == ran.TxStats.Committed && a.Committed == ran.TxStats.Committed
		}},
		{"contention", SectionContention, "contention", func(cell, agg json.RawMessage) bool {
			var c, a contention.Report
			decode(cell, &c)
			decode(agg, &a)
			return c.Edges == ran.Contention.Edges && a.Edges == ran.Contention.Edges
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf, c.s); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Schema    string                       `json:"schema"`
				Cells     []map[string]json.RawMessage `json:"cells"`
				Aggregate json.RawMessage              `json:"aggregate"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.Cells) != 2 {
				t.Fatalf("cells = %d, err %v", len(doc.Cells), err)
			}
			if doc.Schema != string(c.s) {
				t.Fatalf("schema %q, want %q", doc.Schema, c.s)
			}
			// One section per document: the cell that ran carries this
			// section's key alone, the failed cell no section key at all.
			for _, o := range cases {
				if _, has := doc.Cells[0][o.key]; has != (o.s == c.s) {
					t.Fatalf("%s document: cell that ran has %q = %v", c.name, o.key, has)
				}
				if _, has := doc.Cells[1][o.key]; has {
					t.Fatalf("%s document: failed cell carries %q", c.name, o.key)
				}
			}
			if !c.same(doc.Cells[0][c.key], doc.Aggregate) {
				t.Fatalf("decoded payload differs from the one written: %s", doc.Cells[0][c.key])
			}
			var ids struct {
				Cells []struct {
					Workload string     `json:"workload"`
					System   SystemKind `json:"system"`
					Threads  int        `json:"threads"`
					Err      string     `json:"err"`
				} `json:"cells"`
			}
			decode(buf.Bytes(), &ids)
			if got := ids.Cells[0]; got.Workload != "kmeans-low" || got.System != USTM || got.Threads != 2 || got.Err != "" {
				t.Fatalf("cell that ran decoded as %+v", got)
			}
			if got := ids.Cells[1]; got.Err != "boom" || got.System != TL2 || got.Threads != 4 {
				t.Fatalf("failed cell decoded as %+v, want its identity and err", got)
			}
		})
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, Section("typo/v1")); err == nil || buf.Len() != 0 {
		t.Fatalf("unknown section: err %v, %d bytes written", err, buf.Len())
	}
}
