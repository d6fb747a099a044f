package metadata

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// nodeBySplit is the walk Tree.Node replaced: one child lookup per
// strings.Split segment. Kept as the oracle for the strings.Cut walk.
func nodeBySplit(t *Tree, path string) *Tree {
	if t == nil {
		return nil
	}
	node := t
	if path == "" {
		return node
	}
	for _, part := range strings.Split(path, ".") {
		node = node.Child(part)
		if node == nil {
			return nil
		}
	}
	return node
}

// stringByProperties is the rendering Tree.String replaced: one Fprintln per
// flattened property, its value's `\:` escaped.
func stringByProperties(t *Tree) string {
	var b strings.Builder
	for _, p := range t.Properties() {
		p.Value = strings.ReplaceAll(p.Value, `\:`, `\\:`)
		fmt.Fprintln(&b, p)
	}
	return b.String()
}

// libraryDescriptions returns every description file under
// testdata/asapLibrary, the seed corpus of both fuzz targets.
func libraryDescriptions(tb testing.TB) []string {
	tb.Helper()
	var out []string
	root := filepath.Join("..", "..", "testdata", "asapLibrary")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == "graph" {
			return err
		}
		data, err := os.ReadFile(path)
		out = append(out, string(data))
		return err
	})
	if err != nil || len(out) == 0 {
		tb.Fatalf("reading %s: %d files, %v", root, len(out), err)
	}
	return out
}

// oddTree holds the shapes only programmatic Set can build: empty labels at
// the head, in the middle and at the tail of a path.
func oddTree() *Tree {
	t := New()
	for _, p := range []string{"a", "a.b", "a.b.c", "a.", ".a", "a..b", ".", "..", "x.y"} {
		t.Set(p, "v:"+p)
	}
	return t
}

func TestNodePathTable(t *testing.T) {
	trees := []*Tree{nil, New(), oddTree()}
	for _, d := range libraryDescriptions(t) {
		trees = append(trees, MustParse(d))
	}
	paths := []string{
		"", ".", "..", "a", "a.", ".a", "a..b", "a.b", "a.b.c", "a.b.c.d", "a.b.", "x", "x.y", "x.y.z", "b",
		"Constraints", "Constraints.", ".Constraints", "Constraints.Engine", "Constraints.Engine.FS",
		"Constraints..Engine", "Constraints.Input0", "Constraints.Input0.type", "Optimization.param.k",
		"Constraints.OpSpecification.Algorithm.name", "Execution.path", "Nope.nope",
	}
	for ti, tr := range trees {
		for _, p := range paths {
			if got, want := tr.Node(p), nodeBySplit(tr, p); got != want {
				t.Errorf("tree %d: Node(%q) = %p, strings.Split walk gives %p", ti, p, got, want)
			}
		}
		if got, want := tr.String(), stringByProperties(tr); got != want {
			t.Errorf("tree %d: String() = %q, Properties rendering gives %q", ti, got, want)
		}
	}
}

func FuzzNodePath(f *testing.F) {
	trees := []*Tree{oddTree()}
	for _, d := range libraryDescriptions(f) {
		tr := MustParse(d)
		trees = append(trees, tr)
		for _, p := range tr.Properties() {
			f.Add(p.Path)
			f.Add(p.Path + ".")
		}
	}
	for _, p := range []string{"", ".", "a.", ".a", "a..b", "a.b.c.d"} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, path string) {
		for i, tr := range trees {
			if got, want := tr.Node(path), nodeBySplit(tr, path); got != want {
				t.Fatalf("tree %d: Node(%q) = %p, strings.Split walk gives %p", i, path, got, want)
			}
		}
	})
}

func FuzzParseRoundTrip(f *testing.F) {
	for _, d := range libraryDescriptions(f) {
		f.Add(d)
	}
	for _, s := range []string{"", "a=b", "a", "=b", "a..b=c", "a.b = c = d\n# x\n//y\n a.c=\\:", "a=\\\\:"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ParseString(s) // must not panic
		if err != nil {
			return
		}
		once := tr.String()
		if once != stringByProperties(tr) {
			t.Fatalf("String() = %q, Properties rendering gives %q", once, stringByProperties(tr))
		}
		again, err := ParseString(once)
		if err != nil {
			t.Fatalf("rendering %q of %q does not parse: %v", once, s, err)
		}
		if got, want := again.Properties(), tr.Properties(); !slices.Equal(got, want) {
			t.Fatalf("parsing the rendering %q of %q gives %q, want %q", once, s, got, want)
		}
		if twice := again.String(); twice != once {
			t.Fatalf("parse∘String is not a fixed point on %q:\nonce:  %q\ntwice: %q", s, once, twice)
		}
	})
}
