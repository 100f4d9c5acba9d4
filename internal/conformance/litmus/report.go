package litmus

import (
	"fmt"
	"io"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/obs"
)

// ReportSchema versions the JSON layout.
const ReportSchema = "tmsim-litmus-report/v1"

// Config selects what a litmus sweep runs: the curated suite plus the
// enumerated programs, on every system Systems() lists.
type Config struct {
	// Enums adds auto-enumerated program sets.
	Enums []EnumConfig
	// OrderCap bounds interleaving orders per program (seeded sample
	// beyond it); Gaps is the slot-spacing sweep.
	OrderCap int
	Gaps     []uint64
}

// orderSeed drives order sampling beyond OrderCap.
const orderSeed = 1

// SmallConfig is the CI-sized sweep: the full curated suite plus a
// sampled 2-thread enumeration, on a reduced gap grid.
func SmallConfig() Config {
	return Config{
		Enums: []EnumConfig{
			{Threads: 2, Vars: 2, MaxTxOps: 2, MaxNTOps: 1, MaxPrograms: 12, Seed: 7},
		},
		OrderCap: 12,
		Gaps:     []uint64{0, 130, 800},
	}
}

// FullConfig is the exhaustive sweep: wider enumerations (including
// 3-thread shapes), the full gap grid, and a higher order cap.
func FullConfig() Config {
	return Config{
		Enums: []EnumConfig{
			{Threads: 2, Vars: 2, MaxTxOps: 2, MaxNTOps: 2, MaxPrograms: 48, Seed: 7},
			{Threads: 3, Vars: 2, MaxTxOps: 1, MaxNTOps: 1, MaxPrograms: 16, Seed: 11},
		},
		OrderCap: 24,
		Gaps:     DefaultGaps,
	}
}

// SystemVerdict is one (program, system) cell of the report.
type SystemVerdict struct {
	System   string   `json:"system"`
	Class    string   `json:"class"`
	Observed []string `json:"observed"`
	// Extras are observed states outside the oracle (strong-atomicity
	// violations); Witnessed are the matched forbidden conditions.
	Extras    []string `json:"extras,omitempty"`
	Witnessed []string `json:"witnessed,omitempty"`
	StrongOK  bool     `json:"strong_ok"`
	AtomicOK  bool     `json:"atomic_ok"`
	WeakOK    bool     `json:"weak_ok"`
	// Pass is the class check: strong systems must stay inside the
	// oracle, serializable-only systems must have an explaining serial
	// order over transactions and non-transactional ops, weak systems
	// over transactions and non-transactional writes.
	Pass bool     `json:"pass"`
	Errs []string `json:"errs,omitempty"`
}

// ProgramReport is one program's verdict table.
type ProgramReport struct {
	Name      string          `json:"name"`
	Source    string          `json:"source"` // "curated" or "enum"
	Doc       string          `json:"doc,omitempty"`
	Oracle    []string        `json:"oracle"`
	Orders    int             `json:"orders"`
	OrderSpc  int             `json:"order_space"`
	Schedules int             `json:"schedules"`
	Systems   []SystemVerdict `json:"systems"`
}

// EnumSummary reports one enumeration's coverage accounting.
type EnumSummary struct {
	Threads  int `json:"threads"`
	Vars     int `json:"vars"`
	MaxTxOps int `json:"max_tx_ops"`
	MaxNTOps int `json:"max_nt_ops"`
	Total    int `json:"total"`
	Kept     int `json:"kept"`
	Dropped  int `json:"dropped"`
}

// Report is the full sweep result.
type Report struct {
	Schema   string          `json:"schema"`
	Systems  []string        `json:"systems"`
	Gaps     []uint64        `json:"gaps"`
	OrderCap int             `json:"order_cap"`
	Enums    []EnumSummary   `json:"enums,omitempty"`
	Programs []ProgramReport `json:"programs"`
	// Separators are programs where at least one non-strong system
	// escaped the oracle — the shapes that actually distinguish strong
	// from weak atomicity in this simulation.
	Separators []string `json:"separators,omitempty"`
	// Failures gate CI: class-check violations, execution errors, and
	// curated witness-expectation mismatches.
	Failures []string `json:"failures,omitempty"`
}

// Run executes the configured sweep, one (program, system) cell per
// call of r.Each. Cells land in a pre-indexed matrix, so the worker
// count and the completion order cannot change the report.
func Run(r *harness.Runner, cfg Config) *Report {
	systems := Systems()
	type progEntry struct {
		p      *Program
		source string
	}
	var progs []progEntry
	for _, p := range Curated() {
		progs = append(progs, progEntry{p, "curated"})
	}
	rep := &Report{
		Schema:   ReportSchema,
		Systems:  systems,
		Gaps:     cfg.Gaps,
		OrderCap: cfg.OrderCap,
	}
	for _, ec := range cfg.Enums {
		er := Enumerate(ec)
		rep.Enums = append(rep.Enums, EnumSummary{
			Threads: ec.Threads, Vars: ec.Vars,
			MaxTxOps: ec.MaxTxOps, MaxNTOps: ec.MaxNTOps,
			Total: er.Total, Kept: len(er.Programs), Dropped: er.Dropped,
		})
		for _, p := range er.Programs {
			progs = append(progs, progEntry{p, "enum"})
		}
	}

	// Per-program fixed inputs, computed up front (cheap, pure Go).
	oracles := make([]*OutcomeSet, len(progs))
	orders := make([][][]int, len(progs))
	spaces := make([]int, len(progs))
	for i, pe := range progs {
		if err := pe.p.Validate(); err != nil {
			panic(err) // program construction bug, not a runtime condition
		}
		oracles[i] = Oracle(pe.p)
		orders[i], spaces[i] = EnumOrders(pe.p.OpCounts(), cfg.OrderCap, orderSeed)
	}

	verdicts := make([][]SystemVerdict, len(progs))
	for pi := range verdicts {
		verdicts[pi] = make([]SystemVerdict, len(systems))
	}
	r.Each(len(progs)*len(systems), func(arena *machine.Arena, n int) {
		pi, si := n/len(systems), n%len(systems)
		system := systems[si]
		sw := Sweep(arena, system, progs[pi].p, oracles[pi], orders[pi], cfg.Gaps)
		class := ClassOf(system)
		verdicts[pi][si] = SystemVerdict{
			System:    system,
			Class:     string(class),
			Observed:  sw.Observed.Keys(),
			Extras:    sw.Extras,
			Witnessed: sw.Witnessed,
			StrongOK:  sw.StrongOK,
			AtomicOK:  sw.AtomicOK,
			WeakOK:    sw.WeakOK,
			Pass:      sw.Check(class),
			Errs:      sw.Errs,
		}
	})

	sepSet := map[string]bool{}
	for pi, pe := range progs {
		pr := ProgramReport{
			Name:      pe.p.Name,
			Source:    pe.source,
			Doc:       pe.p.Doc,
			Oracle:    oracles[pi].Keys(),
			Orders:    len(orders[pi]),
			OrderSpc:  spaces[pi],
			Schedules: len(orders[pi]) * len(cfg.Gaps),
			Systems:   verdicts[pi],
		}
		for _, v := range pr.Systems {
			if !v.Pass {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("%s on %s: %s-class check failed (strong=%v atomic=%v weak=%v errs=%d)",
						pe.p.Name, v.System, v.Class, v.StrongOK, v.AtomicOK, v.WeakOK, len(v.Errs)))
			}
			if len(v.Extras) > 0 && ClassOf(v.System) != ClassStrong {
				sepSet[pe.p.Name] = true
			}
			if pe.source == "curated" {
				expected := contains(pe.p.Expect.Witnesses, v.System)
				if expected && len(v.Witnessed) == 0 {
					rep.Failures = append(rep.Failures,
						fmt.Sprintf("%s on %s: expected forbidden-state witness not observed", pe.p.Name, v.System))
				}
				if !expected && len(v.Witnessed) > 0 {
					rep.Failures = append(rep.Failures,
						fmt.Sprintf("%s on %s: unexpected forbidden-state witness %v", pe.p.Name, v.System, v.Witnessed))
				}
			}
		}
		rep.Programs = append(rep.Programs, pr)
	}
	rep.Separators = sortedKeys(sepSet)
	return rep
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

// WriteJSON writes the canonical JSON form (stable field order, sorted
// slices — byte-identical across runs and worker counts).
func (r *Report) WriteJSON(w io.Writer) error {
	return obs.WriteJSON(w, r)
}

// WriteText renders the human verdict tables.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "litmus sweep: %d programs x %d systems, %d gaps, order cap %d\n",
		len(r.Programs), len(r.Systems), len(r.Gaps), r.OrderCap)
	for _, e := range r.Enums {
		fmt.Fprintf(w, "enum t=%d vars=%d tx<=%d nt<=%d: %d shapes, kept %d (dropped %d)\n",
			e.Threads, e.Vars, e.MaxTxOps, e.MaxNTOps, e.Total, e.Kept, e.Dropped)
	}
	for _, pr := range r.Programs {
		fmt.Fprintf(w, "\n%s (%s): oracle %d states, %d orders of %d, %d schedules\n",
			pr.Name, pr.Source, len(pr.Oracle), pr.Orders, pr.OrderSpc, pr.Schedules)
		for _, v := range pr.Systems {
			status := "pass"
			if !v.Pass {
				status = "FAIL"
			}
			fmt.Fprintf(w, "  %-14s %-17s %s  observed=%d extras=%d",
				v.System, v.Class, status, len(v.Observed), len(v.Extras))
			if len(v.Witnessed) > 0 {
				fmt.Fprintf(w, " witnessed=%v", v.Witnessed)
			}
			if len(v.Errs) > 0 {
				fmt.Fprintf(w, " errs=%d", len(v.Errs))
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.Separators) > 0 {
		fmt.Fprintf(w, "\nseparators (weak systems escaped the oracle): %v\n", r.Separators)
	}
	if len(r.Failures) > 0 {
		fmt.Fprintf(w, "\nFAILURES (%d):\n", len(r.Failures))
		for _, f := range r.Failures {
			fmt.Fprintf(w, "  %s\n", f)
		}
	} else {
		fmt.Fprintf(w, "\nall class checks passed\n")
	}
}
