package operator

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"github.com/asap-project/ires/internal/metadata"
)

// paramsByWalk is the per-call parse Params replaced, kept as its oracle.
func paramsByWalk(meta *metadata.Tree) map[string]float64 {
	out := make(map[string]float64)
	node := meta.Node("Optimization.param")
	if node == nil {
		return out
	}
	for _, name := range node.Children() {
		if v, err := strconv.ParseFloat(node.Child(name).Value(), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// TestResolvedAccessorsMatchTreeWalks checks every fact NewMaterialized and
// NewAbstract resolve against the description-tree walk it replaced, on the
// shipped library and on the shapes that walk treated specially.
func TestResolvedAccessorsMatchTreeWalks(t *testing.T) {
	descs := map[string]string{
		"two-digit index": "Constraints.Engine=E\nConstraints.OpSpecification.Algorithm.name=a\n" +
			"Constraints.Input10.type=x\nConstraints.Output10.type=y\nConstraints.Input1.type=z",
		"leading zero": "Constraints.Engine=E\nConstraints.OpSpecification.Algorithm.name=a\n" +
			"Constraints.Input01.type=x\nConstraints.Output01.type=y\nConstraints.Input+1.type=p\nConstraints.Input1x.type=q",
		"gap": "Constraints.Engine=E\nConstraints.OpSpecification.Algorithm.name=a\n" +
			"Constraints.Input0.type=x\nConstraints.Input2.type=y\nConstraints.Output0=v\nConstraints.Output2.Engine.FS=HDFS",
		"negative index": "Constraints.Engine=E\nConstraints.OpSpecification.Algorithm.name=a\n" +
			"Constraints.Input-1.type=x\nConstraints.Output-1.type=y",
		"no output spec": "Constraints.Engine=E\nConstraints.OpSpecification.Algorithm.name=a\n" +
			"Constraints.Input0.type=x\nConstraints.Input.number=1\nConstraints.Output.number=2",
		"unparsable param": "Constraints.Engine=E\nConstraints.OpSpecification.Algorithm.name=a\n" +
			"Optimization.param.k=8\nOptimization.param.bad=eight\nOptimization.param.e=1e3\nOptimization.param=3",
		"no constraints subtree but compulsory": "Constraints.Engine=E\nConstraints.OpSpecification.Algorithm.name=a",
	}
	dir := filepath.Join("..", "..", "testdata", "asapLibrary", "operators")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("reading %s: %d entries, %v", dir, len(entries), err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name(), "description"))
		if err != nil {
			t.Fatal(err)
		}
		descs[e.Name()] = string(data)
	}

	for name, desc := range descs {
		meta := metadata.MustParse(desc)
		m, err := NewMaterialized(name, meta)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := m.Engine(), meta.GetDefault(PathEngine, ""); got != want {
			t.Errorf("%s: Engine() = %q, tree says %q", name, got, want)
		}
		if got, want := m.Algorithm(), meta.GetDefault(PathAlgorithm, ""); got != want {
			t.Errorf("%s: Algorithm() = %q, tree says %q", name, got, want)
		}
		if got, want := m.Definition(), meta.String(); got != want {
			t.Errorf("%s: Definition() = %q, tree renders %q", name, got, want)
		}
		if got, want := m.Params(), paramsByWalk(meta); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Params() = %v, a fresh parse gives %v", name, got, want)
		}
		for i := -2; i <= 12; i++ {
			if got, want := m.InputConstraint(i), meta.Node(fmt.Sprintf("Constraints.Input%d", i)); got != want {
				t.Errorf("%s: InputConstraint(%d) = %p, tree walk gives %p", name, i, got, want)
			}
			spec := meta.Node(fmt.Sprintf("Constraints.Output%d", i))
			if got := m.OutputSpec(i); got != spec {
				t.Errorf("%s: OutputSpec(%d) = %p, tree walk gives %p", name, i, got, spec)
			}
			// The tag is the spec, or the {Engine=<engine>} default the
			// planner used to build per table entry.
			want := spec
			if want == nil {
				want = metadata.New()
				want.Set("Engine", m.Engine())
			}
			tag := m.OutputTag(i)
			if !tag.Meta.Equal(want) || tag.Key != want.String() {
				t.Errorf("%s: OutputTag(%d) = %q, want %q", name, i, tag.Key, want.String())
			}
			if spec != nil && tag.Meta != spec {
				t.Errorf("%s: OutputTag(%d) does not share the spec subtree", name, i)
			}
		}

		a := NewAbstract(name, meta)
		if got, want := a.Definition(), meta.String(); got != want {
			t.Errorf("%s: abstract Definition() = %q, tree renders %q", name, got, want)
		}
		if got, want := a.consKey, meta.Node("Constraints").String(); got != want {
			t.Errorf("%s: abstract constraints key = %q, tree renders %q", name, got, want)
		}
	}
	if a := NewAbstract("empty", nil); a.Definition() != "" || a.consKey != "" {
		t.Errorf("empty abstract renders %q / %q", a.Definition(), a.consKey)
	}
}
