package datagen

import (
	"testing"
	"testing/quick"
)

func TestCallGraphShape(t *testing.T) {
	edges := CallGraph(10_000, 1)
	if len(edges) != 10_000 {
		t.Fatalf("edges = %d", len(edges))
	}
	v := VertexCount(edges)
	if v < 2 || v > 1_001 {
		t.Fatalf("vertices = %d", v)
	}
	for _, e := range edges {
		if e.Src == e.Dst {
			t.Fatal("self loop")
		}
		if e.Src < 0 || e.Dst < 0 {
			t.Fatal("negative vertex")
		}
	}
	if CallGraph(0, 1) != nil {
		t.Fatal("zero edges should be nil")
	}
}

func TestCallGraphDeterministic(t *testing.T) {
	a := CallGraph(5_000, 9)
	b := CallGraph(5_000, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic generation")
		}
	}
	c := CallGraph(5_000, 10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical graphs")
	}
}

func TestCorpusShape(t *testing.T) {
	docs := Corpus(100, 50, 2)
	if len(docs) != 100 {
		t.Fatalf("docs = %d", len(docs))
	}
	for i, d := range docs {
		if d.ID != i {
			t.Fatal("IDs not sequential")
		}
		if len(d.Tokens) < 25 || len(d.Tokens) > 101 {
			t.Fatalf("doc %d has %d tokens", i, len(d.Tokens))
		}
	}
	if Corpus(0, 10, 1) != nil {
		t.Fatal("empty corpus should be nil")
	}
	// meanLen default kicks in.
	if d := Corpus(1, 0, 1); len(d[0].Tokens) == 0 {
		t.Fatal("default meanLen broken")
	}
}

func TestLinesAndSizes(t *testing.T) {
	corpus := Corpus(20, 30, 6)
	if SizeOfCorpus(corpus) <= 0 {
		t.Fatal("size must be positive")
	}
	if SizeOfCorpus(nil) != 0 {
		t.Fatal("empty corpus size nonzero")
	}
}

// Property: every generated edge references vertices inside [0,
// VertexCount).
func TestQuickEdgeBounds(t *testing.T) {
	f := func(seed int64) bool {
		n := 100 + int(uint64(seed)%5000)
		edges := CallGraph(n, seed)
		v := int32(VertexCount(edges))
		for _, e := range edges {
			if e.Src >= v || e.Dst >= v || e.Src < 0 || e.Dst < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
