package harness

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/oltp"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/txstats"
)

// OLTPSchemaVersion identifies the open-loop service-workload report
// JSON schema.
const OLTPSchemaVersion = "tmsim-oltp/v1"

// OLTPSystems are the systems the service sweep compares — the full
// Figure 5 roster, so the latency curves sit on the same axis as the
// throughput ones.
var OLTPSystems = Figure5Systems

// OLTPKneeUtilization is the saturation threshold: the knee is the first
// load-axis point where goodput falls below this fraction of the offered
// load (the system is no longer keeping up with arrivals).
const OLTPKneeUtilization = 0.9

// OLTPSweepConfig is the user-tunable shape of the service sweep (the
// -oltp-arrival flag): the arrival process. The skew and mix the load
// axis runs at are fixed in oltpBase; the sweep varies them on their own
// axes.
type OLTPSweepConfig struct {
	Arrival oltp.ArrivalKind
}

// DefaultOLTPSweep is the committed EXPERIMENTS.md configuration:
// Poisson arrivals.
func DefaultOLTPSweep() OLTPSweepConfig {
	return OLTPSweepConfig{Arrival: oltp.ArrivalPoisson}
}

// OLTPThreads is the serving-processor count at the given scale.
func OLTPThreads(s Scale) int {
	if s == ScaleFull {
		return 8
	}
	return 2
}

// OLTPLoadGaps is the load axis: mean interarrival gaps per client
// stream in simulated cycles, highest load (smallest gap) last. The
// smallest gap is below any system's per-request service time, so every
// system saturates somewhere on the axis and the knee is always
// detectable.
func OLTPLoadGaps(s Scale) []uint64 {
	if s == ScaleFull {
		return []uint64{8000, 4000, 2000, 1000, 500, 250, 120}
	}
	return []uint64{2000, 500, 120}
}

// OLTPSkewThetas is the skew axis, swept at the middle load gap.
func OLTPSkewThetas(s Scale) []float64 {
	if s == ScaleFull {
		return []float64{0, 0.6, 0.99, 1.3}
	}
	return []float64{0, 1.2}
}

// OLTPMixes is the read/RMW/scan mix axis, swept at the middle load gap.
func OLTPMixes(s Scale) [][3]int {
	if s == ScaleFull {
		return [][3]int{{95, 5, 0}, {50, 45, 5}, {10, 85, 5}}
	}
	return [][3]int{{95, 5, 0}, {10, 85, 5}}
}

// oltpMidGap is the load held fixed while the skew and mix axes vary.
func oltpMidGap(s Scale) uint64 {
	gaps := OLTPLoadGaps(s)
	return gaps[len(gaps)/2]
}

// oltpBase builds the store/trace configuration shared by every sweep
// cell at the given scale and sweep shape: production-typical skew and a
// read-mostly mix, which the skew and mix axes vary one at a time.
func oltpBase(s Scale, sc OLTPSweepConfig) oltp.Config {
	cfg := oltp.Config{
		Keys:            256,
		RequestsPerProc: 40,
		ScanLen:         8,
		Theta:           0.9,
		ReadPct:         80,
		RMWPct:          15,
		ScanPct:         5,
		MeanGap:         oltpMidGap(s),
		Arrival:         sc.Arrival,
		Seed:            11,
	}
	if s == ScaleFull {
		cfg.Keys = 4096
		// A cap, not a measured size: at θ ≥ 1.2 and 320 requests per
		// processor the STM cells' aborts grow superlinearly and exhaust
		// the MaxSteps budget, and the cell ends as a budget row.
		// 160 keeps every cell under the budget and so hides that storm,
		// a known deviation (DESIGN.md §7) until its cause is found.
		cfg.RequestsPerProc = 160
		cfg.ScanLen = 16
	}
	return cfg
}

// OLTPBenchmark returns the default-shape service workload as a factory,
// so the perf suite, -trace-workload, and FindWorkload can run a single
// oltp cell like any STAMP benchmark.
func OLTPBenchmark(s Scale) WorkloadFactory {
	cfg := oltpBase(s, DefaultOLTPSweep())
	return WorkloadFactory{
		Name: "oltp",
		New:  func() stamp.Workload { return oltp.New(cfg) },
	}
}

// OLTPPoint is one sweep cell: a (axis point, system) service
// measurement. Offered and Goodput are request rates per 1000 simulated
// cycles; Offered is the realized arrival rate of the replayed traces
// (requests / span of arrivals), so Goodput <= Offered always holds —
// the run cannot end before its last arrival.
type OLTPPoint struct {
	Axis    string     `json:"axis"` // load | skew | mix
	System  SystemKind `json:"system"`
	Threads int        `json:"threads"`
	MeanGap uint64     `json:"mean_gap"`
	Theta   float64    `json:"theta"`
	ReadPct int        `json:"read_pct"`
	RMWPct  int        `json:"rmw_pct"`
	ScanPct int        `json:"scan_pct"`

	Requests  uint64 `json:"requests"`
	Committed uint64 `json:"committed"` // arrival-tagged commits (== Requests on success)
	Cycles    uint64 `json:"cycles"`

	Offered     float64 `json:"offered"`
	Goodput     float64 `json:"goodput"`
	Utilization float64 `json:"utilization"` // Goodput / Offered

	// Response is the true response-time distribution (arrival to commit,
	// queueing + service) in simulated cycles.
	Response *txstats.Percentiles `json:"response,omitempty"`
	// QueueWaitP99 is the P99 of the arrival-to-begin (queueing) share.
	QueueWaitP99 float64 `json:"queue_wait_p99"`
	// WastedShare is the fraction of transactional cycles burned in
	// aborted attempts and backoff.
	WastedShare float64 `json:"wasted_share"`

	Err string `json:"err,omitempty"` // a halted cell's point has no commits and no rates
}

// OLTPKnee is one system's saturation knee on the load axis: the first
// point (in increasing offered load) where utilization drops below
// OLTPKneeUtilization. Detected is false only if the system kept up at
// every swept load.
type OLTPKnee struct {
	System      SystemKind `json:"system"`
	Detected    bool       `json:"detected"`
	MeanGap     uint64     `json:"mean_gap"`
	Offered     float64    `json:"offered"`
	Goodput     float64    `json:"goodput"`
	Utilization float64    `json:"utilization"`
}

// OLTPReport is the deterministic `tmsim-oltp/v1` artifact: sweep
// points in job order plus per-system knees. Cells are pure functions of
// their Job, and assembly follows the fixed job order, so encodings are
// byte-identical for every -parallel worker count.
type OLTPReport struct {
	Schema          string           `json:"schema"`
	Arrival         oltp.ArrivalKind `json:"arrival"`
	Threads         int              `json:"threads"`
	Keys            int              `json:"keys"`
	RequestsPerProc int              `json:"requests_per_proc"`
	ScanLen         int              `json:"scan_len"`
	Seed            uint64           `json:"seed"`
	KneeUtilization float64          `json:"knee_utilization"`
	Points          []OLTPPoint      `json:"points"`
	Knees           []OLTPKnee       `json:"knees"`
}

// oltpCell is one axis point of the sweep grid.
type oltpCell struct {
	axis   string
	cfg    oltp.Config
	traces [][]oltp.Request // generated once, replayed by every system's cell
}

// oltpCells enumerates the sweep grid in its fixed order: the load axis,
// then the skew axis and mix axis at the middle load.
func oltpCells(scale Scale, sc OLTPSweepConfig) []oltpCell {
	base := oltpBase(scale, sc)
	var cells []oltpCell
	for _, g := range OLTPLoadGaps(scale) {
		c := base
		c.MeanGap = g
		cells = append(cells, oltpCell{axis: "load", cfg: c})
	}
	for _, th := range OLTPSkewThetas(scale) {
		c := base
		c.Theta = th
		cells = append(cells, oltpCell{axis: "skew", cfg: c})
	}
	for _, mx := range OLTPMixes(scale) {
		c := base
		c.ReadPct, c.RMWPct, c.ScanPct = mx[0], mx[1], mx[2]
		cells = append(cells, oltpCell{axis: "mix", cfg: c})
	}
	return cells
}

// OLTP runs the `-experiment oltp` sweep: the open-loop service workload
// across OLTPSystems on three axes — offered load, Zipfian skew, and
// request mix — with per-transaction lifecycle accounting on, producing
// the tmsim-oltp/v1 report from it (response-time percentiles, goodput,
// wasted work). Conflict attribution runs only if opt.Contention asks
// for it. Like every sweep, cells fan out across the Runner's worker pool
// and the assembled report is bit-identical at any worker count.
func (r *Runner) OLTP(opt Options, scale Scale, sc OLTPSweepConfig) (*OLTPReport, error) {
	opt.TxStats = true
	threads := OLTPThreads(scale)
	cells := oltpCells(scale, sc)

	var jobs []Job
	for i := range cells {
		cfg, traces := cells[i].cfg, cells[i].cfg.Traces(threads)
		cells[i].traces = traces
		f := WorkloadFactory{Name: "oltp", New: func() stamp.Workload { return oltp.Replay(cfg, traces) }}
		for _, sys := range OLTPSystems {
			jobs = append(jobs, Job{System: sys, Factory: f, Threads: threads, Opt: opt})
		}
	}
	results, err := r.Execute(jobs)

	base := oltpBase(scale, sc)
	rep := &OLTPReport{
		Schema:          OLTPSchemaVersion,
		Arrival:         base.Arrival,
		Threads:         threads,
		Keys:            base.Keys,
		RequestsPerProc: base.RequestsPerProc,
		ScanLen:         base.ScanLen,
		Seed:            base.Seed,
		KneeUtilization: OLTPKneeUtilization,
	}
	i := 0
	for _, cell := range cells {
		requests, span := oltp.Offered(cell.traces)
		offered := 0.0
		if span > 0 {
			offered = 1000 * float64(requests) / float64(span)
		}
		for range OLTPSystems {
			res := results[i]
			i++
			pt := OLTPPoint{
				Axis:     cell.axis,
				System:   res.System,
				Threads:  res.Threads,
				MeanGap:  cell.cfg.MeanGap,
				Theta:    cell.cfg.Theta,
				ReadPct:  cell.cfg.ReadPct,
				RMWPct:   cell.cfg.RMWPct,
				ScanPct:  cell.cfg.ScanPct,
				Requests: requests,
				Cycles:   res.Cycles,
				Offered:  offered,
			}
			if res.Err != nil {
				pt.Err = res.Err.Error()
			}
			if ts, halt := res.TxStats, (*sim.Halt)(nil); ts != nil && !errors.As(res.Err, &halt) {
				pt.Committed = ts.Requests
				if res.Cycles > 0 {
					pt.Goodput = 1000 * float64(ts.Requests) / float64(res.Cycles)
				}
				if offered > 0 {
					pt.Utilization = pt.Goodput / offered
				}
				pt.Response = ts.ResponsePercentiles
				if ts.QueueWait != nil {
					pt.QueueWaitP99 = ts.QueueWait.P99()
				}
				pt.WastedShare = ts.WastedShare()
			}
			rep.Points = append(rep.Points, pt)
		}
	}
	rep.Knees = detectKnees(rep.Points)
	return rep, err
}

// detectKnees scans each system's load-axis points in increasing offered
// load for the first one below the utilization threshold. Points arrive
// in job order (load axis first, gaps largest to smallest), so the scan
// order is the offered-load order.
func detectKnees(points []OLTPPoint) []OLTPKnee {
	var knees []OLTPKnee
	for _, sys := range OLTPSystems {
		knee := OLTPKnee{System: sys}
		for _, pt := range points {
			if pt.Axis != "load" || pt.System != sys || pt.Err != "" {
				continue
			}
			knee.MeanGap = pt.MeanGap
			knee.Offered = pt.Offered
			knee.Goodput = pt.Goodput
			knee.Utilization = pt.Utilization
			if pt.Utilization < OLTPKneeUtilization {
				knee.Detected = true
				break
			}
		}
		knees = append(knees, knee)
	}
	return knees
}

// WriteJSON writes the report as indented JSON followed by a newline;
// equal sweeps produce byte-identical files.
func (rep *OLTPReport) WriteJSON(w io.Writer) error {
	out := *rep
	if out.Points == nil {
		out.Points = []OLTPPoint{}
	}
	if out.Knees == nil {
		out.Knees = []OLTPKnee{}
	}
	return obs.WriteJSON(w, out)
}

// PrintOLTP renders the sweep as text tables: one per axis with
// offered/goodput rates (requests per 1000 cycles) and response-time
// percentiles (simulated cycles, arrival to commit), plus the knee
// summary.
func PrintOLTP(w io.Writer, rep *OLTPReport) {
	axes := []struct{ axis, title, varies string }{
		{"load", "offered load", "gap"},
		{"skew", "Zipfian skew", "theta"},
		{"mix", "request mix", "r/m/s"},
	}
	for _, ax := range axes {
		fmt.Fprintf(w, "\nOLTP — %s axis (%s arrivals, %d serving procs; rates per 1000 cycles)\n",
			ax.title, rep.Arrival, rep.Threads)
		fmt.Fprintf(w, "%-14s %-10s %9s %9s %6s %9s %9s %9s %9s %7s\n",
			"system", ax.varies, "offered", "goodput", "util", "P50", "P90", "P99", "P99.9", "wasted")
		for _, pt := range rep.Points {
			if pt.Axis != ax.axis {
				continue
			}
			varies := ""
			switch ax.axis {
			case "load":
				varies = fmt.Sprintf("%d", pt.MeanGap)
			case "skew":
				varies = fmt.Sprintf("%.2f", pt.Theta)
			case "mix":
				varies = fmt.Sprintf("%d/%d/%d", pt.ReadPct, pt.RMWPct, pt.ScanPct)
			}
			if pt.Err != "" && failedRow(w, errors.New(pt.Err), "%-14s %-10s", pt.System, varies) {
				continue
			}
			var p50, p90, p99, p999 float64
			if pc := pt.Response; pc != nil {
				p50, p90, p99, p999 = pc.P50, pc.P90, pc.P99, pc.P999
			}
			fmt.Fprintf(w, "%-14s %-10s %9.3f %9.3f %5.0f%% %9.0f %9.0f %9.0f %9.0f %6.1f%%\n",
				pt.System, varies, pt.Offered, pt.Goodput, 100*pt.Utilization,
				p50, p90, p99, p999, 100*pt.WastedShare)
		}
	}
	fmt.Fprintf(w, "\nOLTP — saturation knees (first load point with utilization < %.0f%%)\n",
		100*rep.KneeUtilization)
	fmt.Fprintf(w, "%-14s %-9s %9s %9s %9s %6s\n", "system", "detected", "gap", "offered", "goodput", "util")
	for _, k := range rep.Knees {
		fmt.Fprintf(w, "%-14s %-9v %9d %9.3f %9.3f %5.0f%%\n",
			k.System, k.Detected, k.MeanGap, k.Offered, k.Goodput, 100*k.Utilization)
	}
}
