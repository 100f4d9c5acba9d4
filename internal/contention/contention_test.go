package contention

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/machine"
)

// edge is the conflict event the machine emits when agg kills vict's
// hardware transaction over addr.
func edge(agg, vict int, addr uint64, reason machine.AbortReason, cycle uint64) machine.TraceEvent {
	return machine.TraceEvent{
		Kind: machine.TraceConflict, Peer: agg, Proc: vict, Addr: addr,
		Flags: machine.FlagAddr, Reason: reason, Cycle: cycle,
	}
}

// commit is the tx-commit of proc committing in hardware (hw) or software.
func commit(proc int, hw bool, cycle uint64) machine.TraceEvent {
	flags := machine.FlagPath
	if !hw {
		flags |= machine.FlagSW
	}
	return machine.TraceEvent{Kind: machine.TraceTxCommit, Proc: proc, Flags: flags, Cycle: cycle}
}

// TestProfileAggregation: edges land in the right headline totals, the
// matrix, and (normalized to cache lines) the per-line stats.
func TestProfileAggregation(t *testing.T) {
	pr := New(2)
	pr.Event(edge(0, 1, 0x100, machine.AbortConflict, 10))
	pr.Event(edge(0, 1, 0x13f, machine.AbortConflict, 20)) // same 64B line as 0x100
	pr.Event(edge(1, 0, 0x200, machine.AbortOverflow, 30))
	pr.Event(edge(-1, 0, 0x200, machine.AbortConflict, 40)) // unknown aggressor
	swKill := machine.TraceEvent{Kind: machine.TraceConflict, Peer: 1, Proc: 0, Flags: machine.FlagSW, Reason: machine.AbortConflict, Cycle: 50}
	pr.Event(swKill) // no address
	pr.Event(commit(0, true, 60))
	pr.Event(commit(1, false, 70))

	rep := pr.Report()
	if rep.Edges != 5 || rep.SWEdges != 1 || rep.NoAddrEdges != 1 || rep.UnknownAggressor != 1 {
		t.Fatalf("headline totals = %+v", rep)
	}
	if rep.HWCommits != 1 || rep.SWCommits != 1 {
		t.Fatalf("commits = hw %d sw %d", rep.HWCommits, rep.SWCommits)
	}
	if rep.Matrix[0][1] != 2 || rep.Matrix[1][0] != 2 || rep.Matrix[0][0] != 0 {
		t.Fatalf("matrix = %v", rep.Matrix)
	}
	if len(rep.HotLines) != 2 {
		t.Fatalf("hot lines = %+v", rep.HotLines)
	}
	// 0x100 and 0x13f merge into one line with 2 edges; 0x200 has 2.
	for _, hl := range rep.HotLines {
		if hl.Total != 2 {
			t.Errorf("line %#x total = %d, want 2", hl.Addr, hl.Total)
		}
		if hl.Addr%64 != 0 {
			t.Errorf("line addr %#x not line-aligned", hl.Addr)
		}
	}
	// The unknown aggressor appears as proc -1 on line 0x200.
	var line200 *HotLine
	for i := range rep.HotLines {
		if rep.HotLines[i].Addr == 0x200 {
			line200 = &rep.HotLines[i]
		}
	}
	if line200 == nil {
		t.Fatalf("line 0x200 missing: %+v", rep.HotLines)
	}
	found := false
	for _, pc := range line200.Aggressors {
		if pc.Proc == -1 && pc.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("unknown aggressor not listed on line 0x200: %+v", line200.Aggressors)
	}
}

// TestReportHotLineOrdering: hot lines sort by total descending then
// address ascending; the TopK cut is accounted in DroppedLines.
func TestReportHotLineOrdering(t *testing.T) {
	pr := New(2)
	hit := func(addr uint64, n int) {
		for i := 0; i < n; i++ {
			pr.Event(edge(0, 1, addr, machine.AbortConflict, 0))
		}
	}
	hit(0x300, 2)
	hit(0x100, 3)
	hit(0x200, 3)
	hit(0x400, 5)
	// TopK+1 lines in all: the rest have one edge each, so the cut drops
	// the single-edge line with the highest address.
	for i := 0; i < TopK-3; i++ {
		hit(0x1000+uint64(i)*64, 1)
	}

	rep := pr.Report()
	if len(rep.HotLines) != TopK || rep.DroppedLines != 1 {
		t.Fatalf("TopK+1 lines: %d kept, %d dropped", len(rep.HotLines), rep.DroppedLines)
	}
	var got []uint64
	for _, hl := range rep.HotLines {
		got = append(got, hl.Addr)
	}
	want := []uint64{0x400, 0x100, 0x200, 0x300, 0x1000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hot line order = %#x, want %#x first", got, want)
		}
	}
	if last, want := got[TopK-1], 0x1000+uint64(TopK-5)*64; last != want {
		t.Fatalf("last line kept %#x, want %#x", last, want)
	}
}

// TestReportWindows: the time series is dense from window 0 through the
// last active window, with correct start cycles and a histogram that
// includes the empty windows.
func TestReportWindows(t *testing.T) {
	const w = WindowCycles
	pr := New(2)
	pr.Event(edge(0, 1, 0x100, machine.AbortConflict, 5))      // window 0
	pr.Event(edge(0, 1, 0x100, machine.AbortConflict, 2*w-1))  // window 1
	pr.Event(edge(1, 0, 0x100, machine.AbortConflict, 4*w+30)) // window 4
	pr.Event(commit(0, true, w+w/2))                           // window 1
	pr.Event(commit(1, false, 4*w+50))                         // window 4

	rep := pr.Report()
	if rep.WindowCycles != WindowCycles {
		t.Fatalf("report window %d, want %d", rep.WindowCycles, WindowCycles)
	}
	if len(rep.Windows) != 5 {
		t.Fatalf("windows = %d, want dense 0..4", len(rep.Windows))
	}
	for i, win := range rep.Windows {
		if win.Index != uint64(i) || win.StartCycle != uint64(i)*w {
			t.Fatalf("window %d = %+v", i, win)
		}
	}
	if rep.Windows[1].Aborts != 1 || rep.Windows[1].HWCommits != 1 {
		t.Fatalf("window 1 = %+v", rep.Windows[1])
	}
	if rep.Windows[2].Aborts != 0 || len(rep.Windows[2].ByReason) != 0 {
		t.Fatalf("empty window 2 = %+v", rep.Windows[2])
	}
	if rep.Windows[4].SWCommits != 1 {
		t.Fatalf("window 4 = %+v", rep.Windows[4])
	}
	h := rep.WindowAbortHist
	if h == nil || h.Count != 5 || h.Max != 1 {
		t.Fatalf("window hist = %+v", h)
	}
}

// TestReportJSONDeterministic: equal edge multisets recorded in
// different orders encode byte-identically.
func TestReportJSONDeterministic(t *testing.T) {
	const w = WindowCycles
	edges := []machine.TraceEvent{
		edge(0, 1, 0x100, machine.AbortConflict, w/10),
		edge(1, 0, 0x200, machine.AbortOverflow, w/5),
		edge(0, 1, 0x300, machine.AbortConflict, w+w/5),
		edge(1, 0, 0x100, machine.AbortConflict, 2*w+w/5),
	}
	render := func(order []int) []byte {
		pr := New(2)
		for _, i := range order {
			pr.Event(edges[i])
		}
		b, err := json.Marshal(pr.Report())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := render([]int{0, 1, 2, 3})
	b := render([]int{3, 2, 1, 0})
	if !bytes.Equal(a, b) {
		t.Fatalf("insertion order leaked into JSON:\n%s\n%s", a, b)
	}
}

// TestReportAdd: headline totals, reasons, and the matrix sum; the
// matrix grows to the larger processor count.
func TestReportAdd(t *testing.T) {
	a := New(2)
	a.Event(edge(0, 1, 0x100, machine.AbortConflict, 0))
	a.Event(commit(0, true, 0))
	b := New(4)
	b.Event(edge(3, 2, 0x200, machine.AbortOverflow, 0))
	b.Event(commit(1, false, 0))

	sum := &Report{}
	sum.Add(a.Report())
	sum.Add(b.Report())
	if sum.Edges != 2 || sum.HWCommits != 1 || sum.SWCommits != 1 || sum.Procs != 4 {
		t.Fatalf("sum = %+v", sum)
	}
	if len(sum.ByReason) != 2 {
		t.Fatalf("reasons = %+v", sum.ByReason)
	}
	if sum.Matrix[0][1] != 1 || sum.Matrix[3][2] != 1 {
		t.Fatalf("matrix = %v", sum.Matrix)
	}
	sum.Add(nil) // nil cells (contention disabled) are a no-op
	if sum.Edges != 2 {
		t.Fatalf("nil Add changed the report")
	}
}

func sampleCells(t *testing.T) []Cell {
	t.Helper()
	const w = WindowCycles
	pr := New(2)
	pr.Event(edge(0, 1, 0x100, machine.AbortConflict, w/10))
	pr.Event(edge(1, 0, 0x200, machine.AbortOverflow, 2*w+w/2))
	pr.Event(commit(0, true, w/2))
	return []Cell{
		{Label: "vacation-high/ufo-hybrid/4 threads", Report: pr.Report()},
		{Label: "cell <with & escapes>", Report: nil},
	}
}

// TestWriteText: the plain renderer shows the summary, matrix, and
// sparkline, and marks cells without data.
func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, sampleCells(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"=== vacation-high/ufo-hybrid/4 threads ===",
		"edges=2",
		"aggressor\\victim matrix:",
		"aborts/window",
		"(no contention data)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

// TestWriteHTMLSelfContained: the HTML document must carry everything
// inline — no scripts, no links, no external URLs — and escape labels.
func TestWriteHTMLSelfContained(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHTML(&buf, sampleCells(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, banned := range []string{"http://", "https://", "<script", "src=", "href=", "@import", "url("} {
		if strings.Contains(out, banned) {
			t.Errorf("HTML report is not self-contained: found %q", banned)
		}
	}
	for _, want := range []string{"<!DOCTYPE html>", "<svg", "</html>", "cell &lt;with &amp; escapes&gt;"} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML report missing %q", want)
		}
	}
}

// TestSparkline: zeros render distinctly and the peak maps to the top
// glyph.
func TestSparkline(t *testing.T) {
	got := sparkline([]uint64{0, 1, 8, 4})
	if !strings.HasPrefix(got, "·") || !strings.Contains(got, "█") {
		t.Fatalf("sparkline = %q", got)
	}
	if sparkline(nil) != "" {
		t.Fatalf("empty sparkline = %q", sparkline(nil))
	}
}
