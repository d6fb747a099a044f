package workflow

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/asap-project/ires/internal/operator"
)

// referenceParseGraph is the bufio.Scanner parser ParseGraphString
// replaced, with the scanner's default 64 KiB line cap. Kept as the oracle
// for the in-place walk.
func referenceParseGraph(r io.Reader, res Resolver) (*Graph, error) {
	g := NewGraph()
	ensure := func(name string) (*Node, error) {
		if n, ok := g.Node(name); ok {
			return n, nil
		}
		if res != nil {
			if a := res.ResolveOperator(name); a != nil {
				return g.AddOperator(name, a)
			}
			if d := res.ResolveDataset(name); d != nil {
				return g.AddDataset(name, d)
			}
		}
		return g.AddDataset(name, nil)
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		switch {
		case len(parts) >= 2 && parts[1] == TargetMarker:
			if _, err := ensure(parts[0]); err != nil {
				return nil, fmt.Errorf("workflow: line %d: %w", lineNo, err)
			}
			if err := g.SetTarget(parts[0]); err != nil {
				return nil, fmt.Errorf("workflow: line %d: %w", lineNo, err)
			}
		case len(parts) == 2 || len(parts) == 3:
			if _, err := ensure(parts[0]); err != nil {
				return nil, fmt.Errorf("workflow: line %d: %w", lineNo, err)
			}
			if _, err := ensure(parts[1]); err != nil {
				return nil, fmt.Errorf("workflow: line %d: %w", lineNo, err)
			}
			if err := g.Connect(parts[0], parts[1]); err != nil {
				return nil, fmt.Errorf("workflow: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("workflow: line %d: malformed %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workflow: read: %w", err)
	}
	return g, nil
}

// graphResolver knows the library's operators and datasets by the names the
// library's graphs use.
var graphResolver = LibraryResolver{Library: abstractLibrary(
	abstractOp("LineCount", "LineCount"),
	abstractOp("tfidf", "TF_IDF"),
	abstractOp("kmeans", "kmeans"),
	abstractOp("op", "x"),
)}

// abstractLibrary returns a library holding the given abstract operators.
func abstractLibrary(abstracts ...*operator.Abstract) *operator.Library {
	lib := operator.NewLibrary()
	for _, a := range abstracts {
		lib.AddAbstract(a)
	}
	return lib
}

// libraryGraphs returns the graph files under testdata/asapLibrary.
func libraryGraphs(tb testing.TB) []string {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "asapLibrary", "abstractWorkflows", "*", "graph"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("globbing library graphs: %d files, %v", len(paths), err)
	}
	var out []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, string(data))
	}
	return out
}

// graphSeeds are the line shapes the scanner treated specially, and every
// branch of the line grammar.
var graphSeeds = []string{
	"", "\n", "a,op\r\nop,b\r\nb,$$target\r\n", "a,op\nop,b,1\nb,$$target", "a,op\rop,b", "\r",
	"# c\n\n  a , op , 0 \n", "just-one-field", "a,b,c,d", "a,op\nop,$$target", "a,$$target,x",
	"a,a", "x\\:y,op", ",", "a,op\nop,a",
}

// FuzzParseGraphString holds ParseGraphString to referenceParseGraph: the
// same graph or the same error text. Inputs with a line past the scanner's
// cap are skipped; the in-place walk has no cap. The seeds run in every go
// test.
func FuzzParseGraphString(f *testing.F) {
	for _, s := range libraryGraphs(f) {
		f.Add(s)
		f.Add(strings.ReplaceAll(s, "\n", "\r\n"))
		f.Add(strings.TrimRight(s, "\n"))
	}
	for _, s := range graphSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, wantErr := referenceParseGraph(strings.NewReader(s), graphResolver)
		if wantErr != nil && strings.Contains(wantErr.Error(), bufio.ErrTooLong.Error()) {
			return
		}
		got, err := ParseGraphString(s, graphResolver)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("ParseGraphString(%q) error %v, reference %v", s, err, wantErr)
		case err != nil:
			if err.Error() != wantErr.Error() {
				t.Fatalf("ParseGraphString(%q) error %q, reference %q", s, err, wantErr)
			}
		case !reflect.DeepEqual(withID(got, want.id), want):
			t.Fatalf("ParseGraphString(%q) builds\n%s\nreference builds\n%s", s, got.DOT(), want.DOT())
		}
	})
}

// withID returns g with its identity set to id: two parses of one text build
// equal graphs under distinct identities, and only the identity may differ.
func withID(g *Graph, id uint64) *Graph {
	g.id = id
	return g
}

// A graph line longer than the scanner's 64 KiB token cap once failed with
// "bufio.Scanner: token too long", although the server accepts 1 MiB bodies.
func TestParseGraphStringLongLine(t *testing.T) {
	long := strings.Repeat("d", 100<<10)
	g, err := ParseGraphString("src,op\nop,"+long+"\n"+long+",$$target\n", graphResolver)
	if err != nil {
		t.Fatal(err)
	}
	if g.Target != long {
		t.Fatalf("target has %d bytes, want %d", len(g.Target), len(long))
	}
	if n, ok := g.Node(long); !ok || len(n.Inputs) != 1 || n.Inputs[0].Name != "op" {
		t.Fatalf("the long dataset is not op's output")
	}
}
