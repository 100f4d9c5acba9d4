package contention

import (
	"fmt"
	"html"
	"io"
	"strings"
)

// Cell pairs a report with the label of the sweep cell it came from
// (typically "workload/system/threads"). The renderers take cells so a
// whole sweep exports into one document.
type Cell struct {
	Label  string
	Report *Report
}

// sparkRunes are the eight levels of a text sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values as unicode block characters scaled to the
// series maximum ("·" for empty windows, so zeros and lows differ).
func sparkline(values []uint64) string {
	var max uint64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	for _, v := range values {
		if v == 0 {
			sb.WriteRune('·')
			continue
		}
		i := int(v * uint64(len(sparkRunes)-1) / max)
		sb.WriteRune(sparkRunes[i])
	}
	return sb.String()
}

func procLabel(p int) string {
	if p < 0 {
		return "?"
	}
	return fmt.Sprintf("p%d", p)
}

func reasonLine(rcs []ReasonCount) string {
	if len(rcs) == 0 {
		return "-"
	}
	parts := make([]string, len(rcs))
	for i, rc := range rcs {
		parts[i] = fmt.Sprintf("%s=%d", rc.Reason, rc.Count)
	}
	return strings.Join(parts, " ")
}

// WriteText renders the cells as a plain-text contention report: per cell
// a summary, the abort-reason breakdown, the hot-line table, the
// aggressor→victim matrix, and an abort-rate sparkline with per-window
// percentiles.
func WriteText(w io.Writer, cells []Cell) error {
	for ci, c := range cells {
		rep := c.Report
		if ci > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "=== %s ===\n", c.Label)
		if rep == nil {
			fmt.Fprintln(w, "  (no contention data)")
			continue
		}
		fmt.Fprintf(w, "  edges=%d (sw=%d, no-addr=%d, unknown-aggressor=%d)  commits hw=%d sw=%d\n",
			rep.Edges, rep.SWEdges, rep.NoAddrEdges, rep.UnknownAggressor, rep.HWCommits, rep.SWCommits)
		fmt.Fprintf(w, "  by reason: %s\n", reasonLine(rep.ByReason))

		if len(rep.HotLines) > 0 {
			fmt.Fprintf(w, "  hot lines (top %d of %d):\n", len(rep.HotLines), len(rep.HotLines)+rep.DroppedLines)
			fmt.Fprintf(w, "    %-12s %8s  %-11s %-11s %s\n", "addr", "aborts", "aggressor", "victim", "reasons")
			for _, hl := range rep.HotLines {
				agg, vict := "-", "-"
				if len(hl.Aggressors) > 0 {
					agg = fmt.Sprintf("%s(%d)", procLabel(hl.Aggressors[0].Proc), hl.Aggressors[0].Count)
				}
				if len(hl.Victims) > 0 {
					vict = fmt.Sprintf("%s(%d)", procLabel(hl.Victims[0].Proc), hl.Victims[0].Count)
				}
				fmt.Fprintf(w, "    %-12s %8d  %-11s %-11s %s\n",
					fmt.Sprintf("%#x", hl.Addr), hl.Total, agg, vict, reasonLine(hl.ByReason))
			}
		}

		if rep.Edges > 0 {
			fmt.Fprintln(w, "  aggressor\\victim matrix:")
			fmt.Fprintf(w, "    %6s", "")
			for v := 0; v < rep.Procs; v++ {
				fmt.Fprintf(w, " %6s", procLabel(v))
			}
			fmt.Fprintln(w)
			for a := 0; a < rep.Procs; a++ {
				fmt.Fprintf(w, "    %6s", procLabel(a))
				for v := 0; v < rep.Procs; v++ {
					fmt.Fprintf(w, " %6d", rep.Matrix[a][v])
				}
				fmt.Fprintln(w)
			}
		}

		if len(rep.Windows) > 0 {
			aborts := make([]uint64, len(rep.Windows))
			for i, win := range rep.Windows {
				aborts[i] = win.Aborts
			}
			fmt.Fprintf(w, "  aborts/window (W=%d cycles, %d windows): %s\n",
				rep.WindowCycles, len(rep.Windows), sparkline(aborts))
			if h := rep.WindowAbortHist; h != nil {
				fmt.Fprintf(w, "  aborts/window percentiles: p50=%.1f p90=%.1f p99=%.1f max=%d\n",
					h.P50(), h.P90(), h.P99(), h.Max)
			}
		}
	}
	return nil
}

// WriteHTML renders the cells as one self-contained HTML document: inline
// CSS, inline SVG sparklines, no scripts, and no references to external
// assets, so the file can be archived or attached to CI runs and opened
// anywhere.
func WriteHTML(w io.Writer, cells []Cell) error {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>tmsim contention report</title>
<style>
body { font-family: ui-monospace, monospace; margin: 2em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #bbb; padding: 2px 8px; text-align: right; }
th { background: #eee; }
td.addr, td.reasons { text-align: left; }
.summary { color: #555; }
svg { display: block; margin: 0.5em 0; }
</style>
</head>
<body>
<h1>tmsim contention report</h1>
`)
	for _, c := range cells {
		rep := c.Report
		fmt.Fprintf(&b, "<h2>%s</h2>\n", html.EscapeString(c.Label))
		if rep == nil {
			b.WriteString("<p class=\"summary\">(no contention data)</p>\n")
			continue
		}
		fmt.Fprintf(&b, "<p class=\"summary\">edges %d (sw %d, no-addr %d, unknown-aggressor %d) &middot; commits hw %d / sw %d &middot; reasons: %s</p>\n",
			rep.Edges, rep.SWEdges, rep.NoAddrEdges, rep.UnknownAggressor,
			rep.HWCommits, rep.SWCommits, html.EscapeString(reasonLine(rep.ByReason)))

		if len(rep.HotLines) > 0 {
			fmt.Fprintf(&b, "<h3>Hot lines (top %d of %d)</h3>\n<table>\n<tr><th>addr</th><th>aborts</th><th>top aggressor</th><th>top victim</th><th>reasons</th></tr>\n",
				len(rep.HotLines), len(rep.HotLines)+rep.DroppedLines)
			for _, hl := range rep.HotLines {
				agg, vict := "-", "-"
				if len(hl.Aggressors) > 0 {
					agg = fmt.Sprintf("%s (%d)", procLabel(hl.Aggressors[0].Proc), hl.Aggressors[0].Count)
				}
				if len(hl.Victims) > 0 {
					vict = fmt.Sprintf("%s (%d)", procLabel(hl.Victims[0].Proc), hl.Victims[0].Count)
				}
				fmt.Fprintf(&b, "<tr><td class=\"addr\">%#x</td><td>%d</td><td>%s</td><td>%s</td><td class=\"reasons\">%s</td></tr>\n",
					hl.Addr, hl.Total, agg, vict, html.EscapeString(reasonLine(hl.ByReason)))
			}
			b.WriteString("</table>\n")
		}

		if rep.Edges > 0 {
			var matrixMax uint64
			for _, row := range rep.Matrix {
				for _, n := range row {
					if n > matrixMax {
						matrixMax = n
					}
				}
			}
			b.WriteString("<h3>Aggressor &rarr; victim</h3>\n<table>\n<tr><th></th>")
			for v := 0; v < rep.Procs; v++ {
				fmt.Fprintf(&b, "<th>%s</th>", procLabel(v))
			}
			b.WriteString("</tr>\n")
			for a := 0; a < rep.Procs; a++ {
				fmt.Fprintf(&b, "<tr><th>%s</th>", procLabel(a))
				for v := 0; v < rep.Procs; v++ {
					n := rep.Matrix[a][v]
					alpha := 0.0
					if matrixMax > 0 {
						alpha = 0.85 * float64(n) / float64(matrixMax)
					}
					fmt.Fprintf(&b, "<td style=\"background: rgba(200,60,40,%.3f)\">%d</td>", alpha, n)
				}
				b.WriteString("</tr>\n")
			}
			b.WriteString("</table>\n")
		}

		if len(rep.Windows) > 0 {
			fmt.Fprintf(&b, "<h3>Aborts per window (W = %d cycles, %d windows)</h3>\n", rep.WindowCycles, len(rep.Windows))
			writeSparkSVG(&b, rep.Windows)
			if h := rep.WindowAbortHist; h != nil {
				fmt.Fprintf(&b, "<p class=\"summary\">aborts/window p50 %.1f &middot; p90 %.1f &middot; p99 %.1f &middot; max %d</p>\n",
					h.P50(), h.P90(), h.P99(), h.Max)
			}
		}
	}
	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSparkSVG emits an inline SVG polyline of aborts per window.
func writeSparkSVG(b *strings.Builder, windows []Window) {
	const width, height = 640.0, 80.0
	var max uint64
	for _, win := range windows {
		if win.Aborts > max {
			max = win.Aborts
		}
	}
	if max == 0 {
		max = 1
	}
	fmt.Fprintf(b, "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\" role=\"img\" aria-label=\"aborts per window\">\n",
		width, height, width, height)
	fmt.Fprintf(b, "<rect x=\"0\" y=\"0\" width=\"%.0f\" height=\"%.0f\" fill=\"#f7f7f7\"/>\n", width, height)
	var pts strings.Builder
	n := len(windows)
	for i, win := range windows {
		x := width * float64(i) / float64(maxInt(n-1, 1))
		y := height - 4 - (height-8)*float64(win.Aborts)/float64(max)
		if i > 0 {
			pts.WriteByte(' ')
		}
		fmt.Fprintf(&pts, "%.1f,%.1f", x, y)
	}
	fmt.Fprintf(b, "<polyline fill=\"none\" stroke=\"#c83c28\" stroke-width=\"1.5\" points=\"%s\"/>\n", pts.String())
	b.WriteString("</svg>\n")
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
