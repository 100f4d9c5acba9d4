package main

import (
	"encoding/json"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds and the -seconds default:
// how long one run measures a workload.
const runSeconds = 10

// metricDef declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of the simulator sees. The driver
// wants every workload to report every one of them, none ever zero, and
// each steady across seeds, which shapes the list: failures and a digest
// that tracing changed are reported through the run's
// correct/attempted/failed fields because their healthy value is zero,
// and the simulated result is the op's total simulated cycles, because
// the hybrid's speed-ups — the paper's headline — swing by 12-20% with
// the machine seed at 64+ processors and so sit in the per-layer list
// (core.*), unbounded. The slowest cell's cost sits there too
// (harness.critical_cell_cost): a 50 ms cell timed three or four times a
// run repeats to 15-18% on oltp-open, which no bound within the driver's
// 25% cap can judge.
//
// Bounds are at least three times the widest interquartile spread seen
// in four sets of ten seeds on the 2-core sandbox, and at most the
// driver's cap of 25% (benchmark/README.md has the table).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_cost", "calib-units", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.06},
	{"sim_cycles", "sim-cycles", "lower", 0.12},
}

// perLayer lists every per-layer metric: group A (CPU-profile shares),
// B (deterministic counts per op), C (spans and raw host time) and D
// (layer-micro entries). benchmark/README.md says which end-to-end
// metric each should move on which workload.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range allBuckets() {
		defs = append(defs, metricDef{Name: l + ".cpu_share", Unit: "ratio", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "sim.cycles", Unit: "sim-cycles", Better: "lower"},
		metricDef{Name: "machine.accesses", Unit: "count", Better: "lower"},
		metricDef{Name: "cache.l1_miss_ratio", Unit: "ratio", Better: "lower"},
		metricDef{Name: "machine.nacks", Unit: "count", Better: "lower"},
		metricDef{Name: "machine.hw_commits", Unit: "count", Better: "higher"},
		metricDef{Name: "machine.hw_aborts", Unit: "count", Better: "lower"},
		metricDef{Name: "machine.ufo_kills", Unit: "count", Better: "lower"},
		metricDef{Name: "tm.sw_commits", Unit: "count", Better: "lower"},
		metricDef{Name: "tm.failovers", Unit: "count", Better: "lower"},
		metricDef{Name: "tm.commit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "core.speedup_vs_seq", Unit: "ratio", Better: "higher"},
		metricDef{Name: "core.speedup_vs_tl2", Unit: "ratio", Better: "higher"},
		metricDef{Name: "core.goodput", Unit: "tx/kcycle", Better: "higher"},
		metricDef{Name: "oltp.resp_p99_hybrid", Unit: "sim-cycles", Better: "lower"},
		metricDef{Name: "txstats.wasted_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "harness.cells", Unit: "count", Better: "higher"},
		metricDef{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.alloc_mb_per_op", Unit: "MiB", Better: "lower"},

		metricDef{Name: "harness.op_ms_p25", Unit: "ms", Better: "lower"},
		metricDef{Name: "harness.op_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "harness.op_ms_p75", Unit: "ms", Better: "lower"},
		metricDef{Name: "harness.cell_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "harness.cell_ms_max", Unit: "ms", Better: "lower"},
		metricDef{Name: "harness.self_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "harness.critical_cell_cost", Unit: "calib-units", Better: "lower"},
		metricDef{Name: "machine.host_ns_per_access", Unit: "ns", Better: "lower"},
		metricDef{Name: "sim.mcycles_per_s", Unit: "Mcycles/s", Better: "higher"},
		metricDef{Name: "bench.calib_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "bench.calib_ms_iqr", Unit: "ms", Better: "lower"},
		metricDef{Name: "bench.samples", Unit: "count", Better: "higher"},
		metricDef{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	)
	for _, e := range microEntries() {
		defs = append(defs, metricDef{Name: e.name, Unit: e.unit, Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "harness.cell_floor_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "harness.fanout_speedup", Unit: "ratio", Better: "higher"},
	)
}

// manifest renders BENCHMARK.json from the tables above, so the file the
// driver reads and the metrics the program emits cannot drift apart: a
// test compares the committed file with this output.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		panic(err) // a struct of strings and numbers always encodes
	}
	return []byte(sb.String())
}
