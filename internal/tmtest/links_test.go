package tmtest

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/harness"
)

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownRelativeLinksResolve checks every relative link in the
// repository's markdown files points at a file that exists, so the doc
// set (README, DESIGN, EXPERIMENTS, OBSERVABILITY, ...) can't silently
// rot as files move.
func TestMarkdownRelativeLinksResolve(t *testing.T) {
	root := filepath.Join("..", "..")
	var mdFiles []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found")
	}
	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				rel, _ := filepath.Rel(root, md)
				t.Errorf("%s: broken relative link %q", rel, m[1])
			}
		}
	}
}

var (
	mdCode = regexp.MustCompile("`([^`\\n]+)`")
	// A catalogued metric name: a layer prefix and lower-case dotted
	// segments, NN for a processor number, <reason> for an abort reason.
	catalogueRow = regexp.MustCompile("(?m)^\\| `((?:tm|machine|cm|txstats|contention)(?:\\.(?:[a-z0-9_]+|NN|<reason>))+)`")
	procMetric   = regexp.MustCompile(`^machine\.proc\.\d+\.`)
	abortMetric  = regexp.MustCompile(`^machine\.hw_aborts\..+`)
)

// TestObservabilityCatalogueMatchesWrittenMetrics holds OBSERVABILITY.md
// to its own word that metric names are a schema: every name a cell
// writes is catalogued there, and every catalogue row is a name some
// cell writes. The cells are one open-loop oltp run with every observer
// on, on a BTM hybrid, a pure STM and the value-validating hybrid —
// between them every layer that writes metrics.
func TestObservabilityCatalogueMatchesWrittenMetrics(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range mdCode.FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]] = true
	}

	opt := harness.DefaultOptions()
	opt.TxStats, opt.Contention = true, true
	f, ok := harness.FindWorkload("oltp", harness.ScaleSmall)
	if !ok {
		t.Fatal("no oltp workload")
	}
	written := map[string]bool{}
	for _, sys := range []harness.SystemKind{harness.UFOHybrid, harness.TL2, harness.HybridNOrec} {
		res := harness.Run(sys, f.New(), 2, opt)
		if res.Err != nil {
			t.Fatalf("%s: %v", sys, res.Err)
		}
		for _, m := range res.Metrics.Metrics {
			name := procMetric.ReplaceAllString(m.Name, "machine.proc.NN.")
			name = abortMetric.ReplaceAllString(name, "machine.hw_aborts.<reason>")
			written[name] = true
			if !documented[name] {
				t.Errorf("%s writes %q (as %q), which OBSERVABILITY.md does not mention", sys, m.Name, name)
			}
		}
	}
	rows := catalogueRow.FindAllStringSubmatch(string(doc), -1)
	if len(rows) == 0 {
		t.Fatal("no catalogue rows found in OBSERVABILITY.md")
	}
	for _, m := range rows {
		if !written[m[1]] {
			t.Errorf("OBSERVABILITY.md catalogues %q, which no cell wrote", m[1])
		}
	}
}
