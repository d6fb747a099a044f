package workflow

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/operator"
)

func matDataset(name string) *operator.Dataset {
	return operator.NewDataset(name, metadata.MustParse("Execution.path=hdfs:///"+name))
}

func abstractOp(name, alg string) *operator.Abstract {
	return operator.NewAbstract(name, metadata.MustParse(
		"Constraints.OpSpecification.Algorithm.name="+alg))
}

// buildLineCount builds the paper's LineCount workflow: log -> LineCount -> d1.
func buildLineCount(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	mustAddDataset(t, g, "asapServerLog", matDataset("asapServerLog"))
	mustAddOperator(t, g, "LineCount", abstractOp("LineCount", "LineCount"))
	mustAddDataset(t, g, "d1", nil)
	mustConnect(t, g, "asapServerLog", "LineCount")
	mustConnect(t, g, "LineCount", "d1")
	if err := g.SetTarget("d1"); err != nil {
		t.Fatal(err)
	}
	return g
}

func mustAddDataset(t *testing.T, g *Graph, name string, d *operator.Dataset) {
	t.Helper()
	if _, err := g.AddDataset(name, d); err != nil {
		t.Fatal(err)
	}
}

func mustAddOperator(t *testing.T, g *Graph, name string, a *operator.Abstract) {
	t.Helper()
	if _, err := g.AddOperator(name, a); err != nil {
		t.Fatal(err)
	}
}

func mustConnect(t *testing.T, g *Graph, from, to string) {
	t.Helper()
	if err := g.Connect(from, to); err != nil {
		t.Fatal(err)
	}
}

func TestBuildAndValidate(t *testing.T) {
	g := buildLineCount(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Sources()) != 1 || g.Sources()[0].Name != "asapServerLog" {
		t.Fatalf("Sources = %v", g.Sources())
	}
	if len(g.Operators()) != 1 || len(g.Datasets()) != 2 {
		t.Fatal("wrong node partition")
	}
}

func TestBipartiteEnforced(t *testing.T) {
	g := NewGraph()
	mustAddDataset(t, g, "a", matDataset("a"))
	mustAddDataset(t, g, "b", nil)
	if err := g.Connect("a", "b"); err == nil {
		t.Fatal("dataset->dataset edge allowed")
	}
	mustAddOperator(t, g, "o1", abstractOp("o1", "x"))
	mustAddOperator(t, g, "o2", abstractOp("o2", "y"))
	if err := g.Connect("o1", "o2"); err == nil {
		t.Fatal("operator->operator edge allowed")
	}
}

func TestDuplicateAndUnknownNodes(t *testing.T) {
	g := NewGraph()
	mustAddDataset(t, g, "a", nil)
	if _, err := g.AddDataset("a", nil); err == nil {
		t.Fatal("duplicate node allowed")
	}
	if _, err := g.AddDataset("", nil); err == nil {
		t.Fatal("empty name allowed")
	}
	if err := g.Connect("a", "missing"); err == nil {
		t.Fatal("edge to unknown node allowed")
	}
	if err := g.Connect("missing", "a"); err == nil {
		t.Fatal("edge from unknown node allowed")
	}
	if err := g.SetTarget("missing"); err == nil {
		t.Fatal("unknown target allowed")
	}
	if _, err := g.AddOperator("op", nil); err == nil {
		t.Fatal("nil abstract operator allowed")
	}
}

func TestValidateFailures(t *testing.T) {
	// No target.
	g := NewGraph()
	mustAddDataset(t, g, "a", matDataset("a"))
	if err := g.Validate(); err == nil {
		t.Fatal("missing target not caught")
	}

	// Operator target.
	g2 := NewGraph()
	mustAddOperator(t, g2, "op", abstractOp("op", "x"))
	if err := g2.SetTarget("op"); err == nil {
		t.Fatal("operator target allowed")
	}

	// Unmaterialized source.
	g3 := NewGraph()
	mustAddDataset(t, g3, "in", nil)
	mustAddOperator(t, g3, "op", abstractOp("op", "x"))
	mustAddDataset(t, g3, "out", nil)
	mustConnect(t, g3, "in", "op")
	mustConnect(t, g3, "op", "out")
	if err := g3.SetTarget("out"); err != nil {
		t.Fatal(err)
	}
	if err := g3.Validate(); err == nil || !strings.Contains(err.Error(), "not materialized") {
		t.Fatalf("unmaterialized source not caught: %v", err)
	}

	// Operator without output.
	g4 := NewGraph()
	mustAddDataset(t, g4, "in", matDataset("in"))
	mustAddOperator(t, g4, "op", abstractOp("op", "x"))
	mustConnect(t, g4, "in", "op")
	if err := g4.SetTarget("in"); err != nil {
		t.Fatal(err)
	}
	if err := g4.Validate(); err == nil || !strings.Contains(err.Error(), "no outputs") {
		t.Fatalf("output-less operator not caught: %v", err)
	}
}

func TestTopologicalOrder(t *testing.T) {
	g := buildLineCount(t)
	order, err := g.Topological()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, n := range order {
		pos[n.Name] = i
	}
	if !(pos["asapServerLog"] < pos["LineCount"] && pos["LineCount"] < pos["d1"]) {
		t.Fatalf("bad topological order: %v", pos)
	}
	ops, err := g.OperatorsTopological()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].Name != "LineCount" {
		t.Fatalf("OperatorsTopological = %v", ops)
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewGraph()
	mustAddDataset(t, g, "d", nil)
	mustAddOperator(t, g, "o", abstractOp("o", "x"))
	mustConnect(t, g, "d", "o")
	mustConnect(t, g, "o", "d")
	if _, err := g.Topological(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestParseGraphPaperFormat(t *testing.T) {
	lib := abstractLibrary(abstractOp("LineCount", "LineCount"))
	if _, err := lib.AddDatasetDescription("asapServerLog", "Execution.path=hdfs:///log"); err != nil {
		t.Fatal(err)
	}
	res := LibraryResolver{Library: lib}
	g, err := ParseGraphString(`
# the LineCount workflow from D3.3 §3.3
asapServerLog,LineCount,0
LineCount,d1,0
d1,$$target
`, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Target != "d1" {
		t.Fatalf("target = %q", g.Target)
	}
	n, _ := g.Node("LineCount")
	if n.Kind != OperatorNode {
		t.Fatal("LineCount should be an operator node")
	}
	d, _ := g.Node("asapServerLog")
	if !d.Dataset.IsMaterialized() {
		t.Fatal("resolved dataset should be materialized")
	}
}

func TestParseGraphTextClustering(t *testing.T) {
	res := LibraryResolver{Library: abstractLibrary(
		abstractOp("tfidf_cilk", "TF_IDF"),
		abstractOp("kmeans", "kmeans"),
	)}
	g, err := ParseGraphString(`
testdir,tfidf_cilk,0
tfidf_cilk,d1,0
d1,kmeans,0
kmeans,d2,0
d2,$$target
`, res)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
	ops, err := g.OperatorsTopological()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0].Name != "tfidf_cilk" || ops[1].Name != "kmeans" {
		t.Fatalf("operator order = %v", ops)
	}
}

func TestParseGraphErrors(t *testing.T) {
	if _, err := ParseGraphString("just-one-field", nil); err == nil {
		t.Fatal("malformed line accepted")
	}
	// Target on an operator node.
	res := LibraryResolver{Library: abstractLibrary(abstractOp("op", "x"))}
	if _, err := ParseGraphString("a,op\nop,$$target", res); err == nil {
		t.Fatal("operator target accepted")
	}
}

func TestDOT(t *testing.T) {
	g := buildLineCount(t)
	dot := g.DOT()
	for _, frag := range []string{"digraph", `"LineCount" [shape=box]`, `"asapServerLog" -> "LineCount"`, "peripheries=2"} {
		if !strings.Contains(dot, frag) {
			t.Fatalf("DOT missing %q:\n%s", frag, dot)
		}
	}
}

// Property: topological order is valid for random layered DAGs — every edge
// points forward.
func TestQuickTopologicalValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		layers := r.Intn(5) + 2
		var prev []string
		for l := 0; l < layers; l++ {
			width := r.Intn(3) + 1
			var cur []string
			for w := 0; w < width; w++ {
				name := string(rune('a'+l)) + string(rune('0'+w))
				if l%2 == 0 {
					g.AddDataset(name, matDatasetQuick(name))
				} else {
					g.AddOperator(name, abstractOpQuick(name))
				}
				cur = append(cur, name)
			}
			for _, c := range cur {
				for _, p := range prev {
					if r.Intn(2) == 0 {
						g.Connect(p, c)
					}
				}
			}
			prev = cur
		}
		order, err := g.Topological()
		if err != nil {
			return false
		}
		pos := make(map[string]int)
		for i, n := range order {
			pos[n.Name] = i
		}
		for _, n := range g.nodes {
			for _, out := range n.Outputs {
				if pos[n.Name] >= pos[out.Name] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func matDatasetQuick(name string) *operator.Dataset {
	return operator.NewDataset(name, metadata.MustParse("Execution.path=hdfs:///"+name))
}

func abstractOpQuick(name string) *operator.Abstract {
	return operator.NewAbstract(name, metadata.MustParse("Constraints.OpSpecification.Algorithm.name="+name))
}
