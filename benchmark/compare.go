package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Verdicts of one (workload, end-to-end metric) comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
)

// worsening returns how much worse b is than a, as a share of a, in the
// metric's own direction: positive is worse, negative is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict judges b against base a. A spread wider than the bound on
// either side means the runs cannot resolve a change of that size, so
// the pairing is reported unresolved, never unchanged.
func verdict(d metricDef, a, b value) string {
	w := worsening(d, a.Value, b.Value)
	switch {
	case math.Max(a.Spread, b.Spread) > d.Bound:
		return verdictUnresolved
	case w > d.Bound:
		return verdictWorse
	case w < -d.Bound:
		return verdictBetter
	}
	return verdictWithin
}

// compareResults prints, per workload, one row per end-to-end metric
// (both values, the ratio with its base, the verdict), whether the two
// runs simulated the same thing, and the per-layer deltas that locate a
// saving: each layer's CPU share times the workload's host cost, and the
// layer-micro entries. It returns how many rows read worse.
func compareResults(w io.Writer, a, b *result) int {
	if a.CalibVersion != b.CalibVersion {
		fmt.Fprintf(w, "calib_version differs (%d vs %d): host costs are in different units and cannot be compared\n",
			a.CalibVersion, b.CalibVersion)
	}
	worse := 0
	for _, wb := range b.Workloads {
		wa := a.workload(wb.Name)
		if wa == nil {
			fmt.Fprintf(w, "\n== %s: not in the base file\n", wb.Name)
			continue
		}
		same := "equal"
		if wa.Digest != wb.Digest {
			same = "DIFFERENT: the two runs did not simulate the same thing"
		}
		fmt.Fprintf(w, "\n== %s  sim_digest %s vs %s: %s\n", wb.Name, wa.Digest, wb.Digest, same)
		fmt.Fprintf(w, "  %-22s %14s %14s  %-28s %s\n", "metric", "base (a)", "new (b)", "b/a", "verdict")
		for _, d := range endToEnd {
			va, okA := wa.EndToEnd[d.Name]
			vb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(d, va, vb)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "  %-22s %14.6g %14.6g  %-28s %s (bound %g%%, spread %.1f%%/%.1f%%)\n",
				d.Name, va.Value, vb.Value,
				fmt.Sprintf("%.4f of base %.6g %s", ratio(vb.Value, va.Value), va.Value, d.Unit),
				v, 100*d.Bound, 100*va.Spread, 100*vb.Spread)
		}
		comparePerLayer(w, wa, wb)
	}
	return worse
}

func ratio(b, a float64) float64 {
	if a == 0 {
		return math.NaN()
	}
	return b / a
}

// comparePerLayer prints where host cost moved: cpu_share × host_cost
// per layer (calibration units), then every other per-layer metric that
// changed by more than 2%.
func comparePerLayer(w io.Writer, wa, wb *workloadResult) {
	if len(wa.PerLayer) == 0 || len(wb.PerLayer) == 0 {
		return
	}
	ha, hb := wa.EndToEnd["host_cost"].Value, wb.EndToEnd["host_cost"].Value
	type row struct {
		name string
		a, b float64
		unit string
	}
	var costs, others []row
	for _, d := range perLayer() {
		va, vb := wa.PerLayer[d.Name].Value, wb.PerLayer[d.Name].Value
		if strings.HasSuffix(d.Name, ".cpu_share") {
			if ha > 0 && hb > 0 && (va > 0 || vb > 0) {
				costs = append(costs, row{d.Name + " x host_cost", va * ha, vb * hb, "calib-units"})
			}
			continue
		}
		if va != vb && math.Abs(vb-va) > 0.02*math.Abs(va) {
			others = append(others, row{d.Name, va, vb, d.Unit})
		}
	}
	sort.SliceStable(costs, func(i, j int) bool {
		return math.Abs(costs[i].b-costs[i].a) > math.Abs(costs[j].b-costs[j].a)
	})
	if len(costs) > 0 {
		fmt.Fprintln(w, "  per-layer host cost (cpu_share x host_cost), largest move first:")
	}
	for _, r := range costs {
		fmt.Fprintf(w, "    %-34s %12.5g %12.5g  %+.5g %s\n", r.name, r.a, r.b, r.b-r.a, r.unit)
	}
	if len(others) > 0 {
		fmt.Fprintln(w, "  other per-layer metrics that moved by more than 2%:")
	}
	for _, r := range others {
		fmt.Fprintf(w, "    %-34s %12.5g %12.5g  %.4f of base %.5g %s\n", r.name, r.a, r.b, ratio(r.b, r.a), r.a, r.unit)
	}
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s (%s, seed %d)\nb = %s (%s, seed %d)\n", pathA, a.Date, a.Seed, pathB, b.Date, b.Seed)
	compareResults(w, a, b)
	return nil
}

// selfCheck measures the same code twice and holds the difference
// against the benchmark's own bounds: if identical code cannot agree
// within a bound, that bound cannot judge a change.
func selfCheck(w io.Writer, cfg config) error {
	fmt.Fprintf(w, "selfcheck %s: two sets of %s, seed %d, %g s per workload\n",
		today(), joinNames(cfg.workloads), cfg.seed, cfg.seconds)
	a, err := measureAll(cfg)
	if err != nil {
		return err
	}
	b, err := measureAll(cfg)
	if err != nil {
		return err
	}
	excess := 0
	for _, wb := range b.Workloads {
		wa := a.workload(wb.Name)
		fmt.Fprintf(w, "\n== %s  sim_digest %s / %s  failed %d / %d\n", wb.Name, wa.Digest, wb.Digest, wa.Failed, wb.Failed)
		if wa.Digest != wb.Digest || !wa.correct() || !wb.correct() {
			fmt.Fprintln(w, "  EXCESS: the two sets did not simulate the same thing, or a cell failed")
			excess++
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			diff := math.Abs(worsening(d, va.Value, vb.Value))
			mark := "ok"
			if diff > d.Bound {
				mark = "EXCESS"
				excess++
			}
			fmt.Fprintf(w, "  %-22s %14.6g %14.6g %-12s diff %6.2f%%  bound %5.1f%%  %s\n",
				d.Name, va.Value, vb.Value, d.Unit, 100*diff, 100*d.Bound, mark)
		}
	}
	if err := writeResult(cfg.out, b); err != nil {
		return err
	}
	if excess > 0 {
		return fmt.Errorf("selfcheck: %d comparisons exceed their bound", excess)
	}
	fmt.Fprintln(w, "\nselfcheck passed: every end-to-end metric repeats within its bound")
	return nil
}
