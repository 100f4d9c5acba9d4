package harness

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
)

// ReportSchemaVersion identifies the sweep metrics report JSON schema.
const ReportSchemaVersion = "tmsim-metrics-report/v1"

// CellMetrics is one sweep cell's identity plus its metrics snapshot.
type CellMetrics struct {
	Workload string        `json:"workload"`
	System   SystemKind    `json:"system"`
	Threads  int           `json:"threads"`
	Err      string        `json:"err,omitempty"`
	Metrics  *obs.Snapshot `json:"metrics"`
}

// MetricsReport accumulates per-cell metrics across one or more sweeps.
// Fed from Runner.Collect it is filled in job order, so for a fixed
// experiment sequence its JSON encoding is byte-identical for every
// worker count. It is not safe for concurrent use; the Runner serializes
// Collect invocations.
type MetricsReport struct {
	Cells []CellMetrics
}

// Collector returns a Runner.Collect callback appending into the report.
func (rep *MetricsReport) Collector() func(Job, Result) {
	return func(_ Job, res Result) {
		cell := CellMetrics{
			Workload: res.Workload,
			System:   res.System,
			Threads:  res.Threads,
			Metrics:  res.Metrics,
		}
		if res.Err != nil {
			cell.Err = res.Err.Error()
		}
		rep.Cells = append(rep.Cells, cell)
	}
}

// Aggregate merges every cell's snapshot: counters and gauges sum,
// histograms merge bucket-wise. Merging in cell order over commutative
// sums keeps the aggregate deterministic.
func (rep *MetricsReport) Aggregate() *obs.Snapshot {
	agg := obs.NewRegistry().Snapshot()
	for _, c := range rep.Cells {
		if c.Metrics != nil {
			agg.Add(c.Metrics)
		}
	}
	return agg
}

// reportJSON is the on-disk shape of a metrics report.
type reportJSON struct {
	Schema    string        `json:"schema"`
	Cells     []CellMetrics `json:"cells"`
	Aggregate *obs.Snapshot `json:"aggregate"`
}

// WriteJSON writes the report — schema tag, per-cell snapshots in sweep
// order, and the aggregate — as indented JSON followed by a newline.
func (rep *MetricsReport) WriteJSON(w io.Writer) error {
	out := reportJSON{
		Schema:    ReportSchemaVersion,
		Cells:     rep.Cells,
		Aggregate: rep.Aggregate(),
	}
	if out.Cells == nil {
		out.Cells = []CellMetrics{}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadMetricsReport parses a report written by WriteJSON, for offline
// reprocessing (EXPERIMENTS.md shows how to regenerate figure numbers
// from an archived report instead of rerunning the simulator).
func ReadMetricsReport(r io.Reader) (*MetricsReport, error) {
	var raw reportJSON
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, err
	}
	if raw.Schema != ReportSchemaVersion {
		return nil, fmt.Errorf("harness: unknown metrics report schema %q", raw.Schema)
	}
	return &MetricsReport{Cells: raw.Cells}, nil
}

// FindWorkload looks a workload factory up by name across the paper and
// extension benchmark sets at the given scale.
func FindWorkload(name string, scale Scale) (WorkloadFactory, bool) {
	all := append(Benchmarks(scale), ExtendedBenchmarks(scale)...)
	for _, f := range append(all, ScaleBenchmark(scale), OLTPBenchmark(scale)) {
		if f.Name == name {
			return f, true
		}
	}
	return WorkloadFactory{}, false
}
