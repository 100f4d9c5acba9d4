package harness

import (
	"fmt"
	"io"

	"repro/internal/contention"
	"repro/internal/obs"
	"repro/internal/txstats"
)

// Section names one of the three payloads a sweep cell can carry by the
// schema string of the JSON document Report.WriteJSON emits for it
// (OBSERVABILITY.md documents each).
type Section string

// The sections, in the order their flags appear in tmsim's usage.
const (
	// SectionMetrics is the cell's obs.Snapshot (always collected).
	SectionMetrics Section = "tmsim-metrics-report/v1"
	// SectionTxStats is the cell's txstats.Report (Options.TxStats).
	SectionTxStats Section = "tmsim-txstats/v1"
	// SectionContention is the cell's contention.Report (Options.Contention).
	SectionContention Section = "tmsim-contention-report/v1"
)

// Cell is one sweep cell's identity, its error if it failed, and the
// sections collected for it. A section the cell ran without (or lost
// to a panic) is nil and absent from the JSON; the cell itself still
// appears, so cell counts line up across documents.
type Cell struct {
	Workload   string             `json:"workload"`
	System     SystemKind         `json:"system"`
	Threads    int                `json:"threads"`
	Err        string             `json:"err,omitempty"`
	Metrics    *obs.Snapshot      `json:"metrics,omitempty"`
	TxStats    *txstats.Report    `json:"txstats,omitempty"`
	Contention *contention.Report `json:"contention,omitempty"`
}

// Label renders the cell's coordinates for the text and HTML renderers.
func (c Cell) Label() string {
	return fmt.Sprintf("%s/%s/%d threads", c.Workload, c.System, c.Threads)
}

// pick returns c carrying section s alone, and that section's payload;
// for a Section that is none of the three, an error.
func (c Cell) pick(s Section) (Cell, any, error) {
	out := Cell{Workload: c.Workload, System: c.System, Threads: c.Threads, Err: c.Err}
	switch s {
	case SectionMetrics:
		out.Metrics = c.Metrics
		return out, c.Metrics, nil
	case SectionTxStats:
		out.TxStats = c.TxStats
		return out, c.TxStats, nil
	case SectionContention:
		out.Contention = c.Contention
		return out, c.Contention, nil
	}
	return out, nil, fmt.Errorf("harness: unknown report section %q", s)
}

// Report accumulates sweep cells across one or more sweeps. Fed from
// Runner.Collect it is filled in job order, so for a fixed experiment
// sequence every encoding of it is byte-identical for every worker
// count. It is not safe for concurrent use; the Runner serializes
// Collect invocations.
type Report struct {
	Cells []Cell
}

// Add appends one Cell for res, with every section the result carries.
func (rep *Report) Add(res Result) {
	cell := Cell{
		Workload:   res.Workload,
		System:     res.System,
		Threads:    res.Threads,
		Metrics:    res.Metrics,
		TxStats:    res.TxStats,
		Contention: res.Contention,
	}
	if res.Err != nil {
		cell.Err = res.Err.Error()
	}
	rep.Cells = append(rep.Cells, cell)
}

// Collector returns a Runner.Collect callback that Adds every result.
func (rep *Report) Collector() func(Job, Result) {
	return func(_ Job, res Result) { rep.Add(res) }
}

// Aggregate merges every cell's sections into one identity-less Cell
// whose three sections are all non-nil: metrics sum counters and gauges
// and merge histograms bucket-wise (obs.Snapshot.Add); txstats sums
// counts, cycle splits and the abort breakdown and recomputes
// percentiles (txstats.Report.Add); contention sums the headline totals
// and the aggressor→victim matrix while hot lines and windows stay
// per-cell (contention.Report.Add). Merging in cell order over
// commutative sums keeps the aggregate deterministic.
func (rep *Report) Aggregate() Cell {
	agg := Cell{
		Metrics:    obs.NewSnapshot(),
		TxStats:    &txstats.Report{},
		Contention: &contention.Report{},
	}
	for _, c := range rep.Cells {
		if c.Metrics != nil {
			agg.Metrics.Add(c.Metrics)
		}
		agg.TxStats.Add(c.TxStats)
		agg.Contention.Add(c.Contention)
	}
	return agg
}

// reportJSON is the on-disk shape of every section's document, as written.
type reportJSON struct {
	Schema    string `json:"schema"`
	Cells     []Cell `json:"cells"`
	Aggregate any    `json:"aggregate"`
}

// WriteJSON writes section s of the report — its schema tag, every cell
// in sweep order carrying that section alone, and the section's
// aggregate — as indented JSON followed by a newline. A Section that is
// none of the three is an error and writes nothing.
func (rep *Report) WriteJSON(w io.Writer, s Section) error {
	only := Report{Cells: make([]Cell, len(rep.Cells))}
	for i, c := range rep.Cells {
		only.Cells[i], _, _ = c.pick(s) // an unknown s fails below, cells or none
	}
	_, agg, err := only.Aggregate().pick(s) // of the picked cells: the other sections merge nothing
	if err != nil {
		return err
	}
	return obs.WriteJSON(w, reportJSON{Schema: string(s), Cells: only.Cells, Aggregate: agg})
}

// ContentionCells converts to the labeled-cell form contention.WriteText
// and contention.WriteHTML render, a failed cell's error in its label.
func (rep *Report) ContentionCells() []contention.Cell {
	out := make([]contention.Cell, len(rep.Cells))
	for i, c := range rep.Cells {
		label := c.Label()
		if c.Err != "" {
			label += " (FAILED: " + c.Err + ")"
		}
		out[i] = contention.Cell{Label: label, Report: c.Contention}
	}
	return out
}
