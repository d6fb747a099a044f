package trace

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The declaration table's invariants: one declaration per name, label names
// sorted (the exposition renders them in declared order), bounds exactly on
// histograms, and a label on a feed exactly when its metric has one.
func TestMetricDeclarations(t *testing.T) {
	for i, m := range metrics {
		if i > 0 && metrics[i-1].name >= m.name {
			t.Errorf("%s: declared twice, or the table is not sorted", m.name)
		}
		if !sort.StringsAreSorted(m.labels) {
			t.Errorf("%s: label names %v are not sorted", m.name, m.labels)
		}
		if (m.kind == histogram) != (len(m.bounds) > 0) {
			t.Errorf("%s: kind %s with bounds %v", m.name, m.kind, m.bounds)
		}
		for _, f := range m.feeds {
			if (f.label != nil) != (len(m.labels) == 1) {
				t.Errorf("%s: a feed's label does not match the declared labels %v", m.name, m.labels)
			}
		}
	}
}

// TestMetricInventoryDocumented keeps docs/tracing.md's metric inventory and
// the declaration table in step: every declared metric has one row with its
// kind and labels, and no row names an undeclared metric.
func TestMetricInventoryDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "tracing.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{} // name -> "kind labels"
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`ires_") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		labels := strings.ReplaceAll(strings.TrimSpace(cells[3]), "`", "")
		if labels == "—" {
			labels = ""
		}
		if _, dup := rows[name]; dup {
			t.Errorf("docs/tracing.md lists %s twice", name)
		}
		rows[name] = strings.TrimSpace(cells[2]) + " " + labels
	}
	for _, m := range metrics {
		want := m.kind + " " + strings.Join(m.labels, ", ")
		if got, ok := rows[m.name]; !ok {
			t.Errorf("docs/tracing.md does not list %s", m.name)
		} else if got != want {
			t.Errorf("docs/tracing.md lists %s as %q, declared %q", m.name, got, want)
		}
		delete(rows, m.name)
	}
	for name := range rows {
		t.Errorf("docs/tracing.md lists %s, which is not declared", name)
	}
}

// Every declared metric appears in one of the root package's /metrics golden
// fixtures (testdata/metrics_*.prom), so they pin its HELP and TYPE lines.
func TestEveryMetricInAGoldenFixture(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "metrics_*.prom"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures (%v)", err)
	}
	typed := map[string]bool{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
				typed[f[2]] = true
			}
		}
	}
	for _, m := range metrics {
		if !typed[m.name] {
			t.Errorf("%s is in no fixture", m.name)
		}
	}
}
