package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

const resultSchema = "tmsim-benchmark/v1"

// value is one reported metric. Samples and Spread (interquartile range
// over the median, across this run's iterations) say how far the value
// can be trusted; both are zero for numbers that repeat exactly.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Spread  float64 `json:"spread,omitempty"`
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Name          string           `json:"name"`
	Iterations    int              `json:"iterations"`
	Attempted     int              `json:"attempted"`
	Failed        int              `json:"failed"`
	Failures      []string         `json:"failures,omitempty"`
	Digest        string           `json:"sim_digest"`
	TracedDigest  string           `json:"sim_digest_traced,omitempty"`
	DigestChanged bool             `json:"sim_digest_changed"`
	CriticalCell  string           `json:"critical_cell,omitempty"`
	SetupRawS     float64          `json:"setup_raw_s,omitempty"` // setup_s before scaling to the reference host
	EndToEnd      map[string]value `json:"end_to_end,omitempty"`
	PerLayer      map[string]value `json:"per_layer,omitempty"`
}

func (w *workloadResult) correct() bool { return w.Failed == 0 && !w.DigestChanged }

// result is the file benchmark/out/result.json holds.
type result struct {
	Schema       string            `json:"schema"`
	CalibVersion int               `json:"calib_version"`
	Seed         uint64            `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Date         string            `json:"date"`
	GoVersion    string            `json:"go"`
	NumCPU       int               `json:"nproc"`
	Workloads    []*workloadResult `json:"workloads"`
}

func (r *result) correct() bool {
	for _, w := range r.Workloads {
		if !w.correct() {
			return false
		}
	}
	return true
}

func (r *result) workload(name string) *workloadResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// endToEndValues assembles the end-to-end metrics from an untraced pass
// and the cold set-up samples.
func endToEndValues(p *pass, setup []float64) map[string]value {
	n := p.iterations()
	vals := map[string]float64{
		"setup_s":       median(setup),
		"host_cost":     p.hostCost(),
		"allocs_per_op": median(p.mallocs),
		"sim_cycles":    float64(p.totals().cycles),
	}
	out := map[string]value{}
	for _, d := range endToEnd {
		out[d.Name] = value{Value: vals[d.Name], Unit: d.Unit, Samples: n}
	}
	set := func(name string, samples []float64) {
		v := out[name]
		v.Samples, v.Spread = len(samples), spread(samples)
		out[name] = v
	}
	set("setup_s", setup)
	set("host_cost", p.iterCost)
	set("allocs_per_op", p.mallocs)
	return out
}

// perLayerValues assembles the per-layer metrics: CPU shares and spans
// from the traced pass t, raw host time from the untraced pass u of the
// same process, counts from what t simulated, and the group D entries
// from the micro pass m.
func perLayerValues(u, t *pass, shares map[string]float64, m *pass, fanout float64) map[string]value {
	vals := map[string]float64{}
	for l, s := range shares {
		vals[l+".cpu_share"] = s
	}

	c := t.totals()
	vals["sim.cycles"] = float64(c.cycles)
	vals["machine.accesses"] = float64(c.accesses)
	if c.accesses > 0 {
		vals["cache.l1_miss_ratio"] = float64(c.l1Misses) / float64(c.accesses)
	}
	vals["machine.nacks"] = float64(c.nacks)
	vals["machine.hw_commits"] = float64(c.hwCommits)
	vals["machine.hw_aborts"] = float64(c.hwAborts)
	vals["machine.ufo_kills"] = float64(c.ufoKills)
	vals["tm.sw_commits"] = float64(c.swCommits)
	vals["tm.failovers"] = float64(c.failovers)
	vals["tm.commit_ratio"] = c.commitRatio()
	vals["core.speedup_vs_seq"] = t.sim.speedupHybrid
	vals["core.speedup_vs_tl2"] = t.sim.hybridVsTL2
	vals["core.goodput"] = t.sim.goodputHybrid
	vals["oltp.resp_p99_hybrid"] = t.sim.respP99Hybrid
	vals["txstats.wasted_share"] = t.sim.wastedShare
	vals["harness.cells"] = float64(len(t.first))
	vals["runtime.gc_cycles_per_op"] = median(u.gcCycles)
	vals["runtime.alloc_mb_per_op"] = median(u.allocMB)

	opMS := median(u.opMS)
	cellMS := u.cellMS()
	vals["harness.op_ms_p25"] = quantile(u.opMS, 0.25)
	vals["harness.op_ms_p50"] = opMS
	vals["harness.op_ms_p75"] = quantile(u.opMS, 0.75)
	vals["harness.cell_ms_p50"] = median(cellMS)
	vals["harness.cell_ms_max"] = quantile(cellMS, 1)
	vals["harness.self_ms"] = median(u.selfMS)
	_, vals["harness.critical_cell_cost"] = u.critical()
	if c.accesses > 0 {
		vals["machine.host_ns_per_access"] = opMS * 1e6 / float64(c.accesses)
	}
	if opMS > 0 {
		vals["sim.mcycles_per_s"] = float64(c.cycles) / (opMS / 1e3) / 1e6
	}
	vals["bench.calib_ms_p50"] = median(u.calibMS)
	vals["bench.calib_ms_iqr"] = quantile(u.calibMS, 0.75) - quantile(u.calibMS, 0.25)
	vals["bench.samples"] = float64(u.iterations())
	if uc := u.hostCost(); uc > 0 {
		vals["bench.trace_overhead_frac"] = t.hostCost()/uc - 1
	}

	entries := microEntries()
	micro := m.cellMS()
	for i, e := range entries {
		if i < len(micro) {
			vals[e.name] = e.perCall(time.Duration(micro[i] * float64(time.Millisecond)))
		}
	}
	if len(micro) > len(entries) {
		vals["harness.cell_floor_ms"] = micro[len(entries)] // the sequential kmeans cell
	}
	vals["harness.fanout_speedup"] = fanout

	out := map[string]value{}
	for _, d := range perLayer() {
		out[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// printResult writes every metric by name with its unit.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "benchmark %s  calib_version=%d  seed=%d  seconds=%g  %s  nproc=%d\n",
		r.Schema, r.CalibVersion, r.Seed, r.Seconds, r.GoVersion, r.NumCPU)
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "\n== %s  iterations=%d  cells attempted=%d failed=%d  sim_digest=%s",
			wl.Name, wl.Iterations, wl.Attempted, wl.Failed, wl.Digest)
		if wl.TracedDigest != "" {
			fmt.Fprintf(w, "  traced=%s  sim_digest_changed=%v", wl.TracedDigest, wl.DigestChanged)
		}
		fmt.Fprintln(w)
		for _, f := range wl.Failures {
			fmt.Fprintf(w, "  FAILED %s\n", f)
		}
		for _, d := range endToEnd {
			v, ok := wl.EndToEnd[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-28s %14.6g %-12s n=%-3d spread=%5.1f%%  bound=%g%%",
				d.Name, v.Value, v.Unit, v.Samples, 100*v.Spread, 100*d.Bound)
			if d.Name == "setup_s" {
				fmt.Fprintf(w, "  (%.6g s as measured)", wl.SetupRawS)
			}
			fmt.Fprintln(w)
		}
		for _, d := range perLayer() {
			v, ok := wl.PerLayer[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-28s %14.6g %s", d.Name, v.Value, v.Unit)
			if d.Name == "harness.critical_cell_cost" {
				fmt.Fprintf(w, "  (%s)", wl.CriticalCell)
			}
			fmt.Fprintln(w)
		}
	}
}

// driverLine is the one-line JSON the benchmark driver reads last on
// standard output.
func driverLine(wl *workloadResult, metrics map[string]value) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{wl.correct(), wl.Attempted, wl.Failed, map[string]mv{}}
	for name, v := range metrics {
		line.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	return string(b)
}

// ensureOut creates dir and proves it is writable, so a bad -out fails
// before any measuring is done.
func ensureOut(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("-out %s: %w", dir, err)
	}
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("-out %s is not writable: %w", dir, err)
	}
	f.Close()
	return os.Remove(f.Name())
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func writeResult(dir string, r *result) error {
	return writeFile(filepath.Join(dir, "result.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	})
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return &r, nil
}

// traceEvent is one Chrome-trace (Perfetto) complete event. Args carry
// the span's own identifier and its parent's.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes the traced pass's spans: run -> iteration -> sweep
// call -> cell on one track, run -> calibration on a second (a kernel
// run inside a Progress callback overlaps its sweep call in time without
// being part of it).
func writeTrace(dir, workload string, p *pass) error {
	if len(p.its) == 0 {
		return nil
	}
	origin := p.its[0].cals[0].start
	us := func(t time.Time) float64 { return float64(t.Sub(origin)) / float64(time.Microsecond) }
	const work, calib = 1, 2
	events := []traceEvent{
		{Name: "thread_name", Ph: "M", PID: 1, TID: work, Args: map[string]any{"name": workload}},
		{Name: "thread_name", Ph: "M", PID: 1, TID: calib, Args: map[string]any{"name": "calibration"}},
	}
	id := 0
	emit := func(name string, tid int, s span, parent int) int {
		id++
		events = append(events, traceEvent{
			Name: name, Ph: "X", TS: us(s.start), Dur: us(s.end) - us(s.start), PID: 1, TID: tid,
			Args: map[string]any{"id": id, "parent": parent},
		})
		return id
	}
	last := p.its[len(p.its)-1]
	run := emit("run "+workload, work, span{origin, last.cals[len(last.cals)-1].end}, 0)
	for n, it := range p.its {
		iter := emit(fmt.Sprintf("iteration %d", n), work, it.op, run)
		execs := make([]int, len(it.execs))
		for e, ex := range it.execs {
			execs[e] = emit(fmt.Sprintf("sweep call %d", e), work, ex, iter)
		}
		for i, c := range it.cells {
			parent := iter // a cell the benchmark timed itself
			for e, ex := range it.execs {
				if !c.start.Before(ex.start) && !c.end.After(ex.end) {
					parent = execs[e]
				}
			}
			emit(p.cellNames[n][i], work, c, parent)
		}
		for _, c := range it.cals {
			emit("calibration", calib, c, run)
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return writeFile(filepath.Join(dir, "trace-"+workload+".json"), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	})
}

// today is the date results are filed under.
func today() string { return time.Now().UTC().Format("2006-01-02") }

func joinNames(ws []workload) string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
