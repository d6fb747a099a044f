package metadata

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// referenceParse is the bufio.Scanner parser ParseString replaced: a 64 KiB
// buffer per call and a 1 MiB line cap, building the reference tree. Kept as
// the oracle for the in-place walk.
func referenceParse(r io.Reader) (*refTree, error) {
	t := &refTree{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
			continue
		}
		eq := strings.Index(line, "=")
		if eq < 0 {
			return nil, fmt.Errorf("metadata: line %d: missing '=' in %q", lineNo, line)
		}
		key := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		val = strings.ReplaceAll(val, `\:`, ":")
		if key == "" {
			return nil, fmt.Errorf("metadata: line %d: empty key", lineNo)
		}
		for _, part := range strings.Split(key, ".") {
			if part == "" {
				return nil, fmt.Errorf("metadata: line %d: empty path segment in key %q", lineNo, key)
			}
		}
		t.set(key, val)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metadata: read: %w", err)
	}
	return t, nil
}

// parseSeeds are the line shapes the scanner treated specially, or that the
// comment and escape rules touch.
var parseSeeds = []string{
	"", "\n", "\n\n", "a=b", "a=b\n", "a=b\r\nc=d\r\n", "a=b\r\nc=d", "a=b\rc=d", "\r", "a=\r",
	"  \n# c=d\n// e=f\n\t\na.b = c\n", "x=hdfs\\://h/p\\:1\n", "a", "=b", "a..b=c", ".a=b", "a.=b",
	"a=b\n\nbad line\n", "a.b=1\na=2\na.b.c=3", " a = b = c ", "#\n//\n/x=y", "a=\\\\:",
}

// FuzzParseString holds ParseString to referenceParse: the same properties
// or the same error text. Inputs with a line past the scanner's cap are
// skipped; the in-place walk has no cap. The seeds run in every go test.
func FuzzParseString(f *testing.F) {
	for _, s := range libraryDescriptions(f) {
		f.Add(s)
		f.Add(strings.ReplaceAll(s, "\n", "\r\n"))
		f.Add(strings.TrimRight(s, "\n"))
	}
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, wantErr := referenceParse(strings.NewReader(s))
		if wantErr != nil && strings.Contains(wantErr.Error(), bufio.ErrTooLong.Error()) {
			return
		}
		got, err := ParseString(s)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("ParseString(%q) error %v, reference %v", s, err, wantErr)
		case err != nil:
			if err.Error() != wantErr.Error() {
				t.Fatalf("ParseString(%q) error %q, reference %q", s, err, wantErr)
			}
		case diffTree(got, want, nil) != "":
			t.Fatalf("ParseString(%q) = %q, reference %q: %s", s, got.Properties(), want.properties(), diffTree(got, want, nil))
		}
	})
}

func TestParseStringLongLine(t *testing.T) {
	long := strings.Repeat("v", 2<<20)
	tr, err := ParseString("a=b\nk=" + long + "\nc=d")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := tr.Get("k"); v != long {
		t.Fatalf("long value has %d bytes, want %d", len(v), len(long))
	}
	if v, _ := tr.Get("c"); v != "d" {
		t.Fatalf("c = %q after the long line, want d", v)
	}
}

// steadySource is the source description of bench/e2e's steady_text runs.
const steadySource = "Constraints.Engine.FS=HDFS\nConstraints.type=SequenceFile\nExecution.path=hdfs:///warc" +
	"\nOptimization.documents=50000\nOptimization.size=250000000"

// A tree built at once is one slab: parsing a dataset's description or an
// operator's constraint, and cloning a tree, allocate once each.
func TestTreeBuildsAllocateOnce(t *testing.T) {
	src := MustParse(steadySource)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"ParseString(source)", func() { ParseString(steadySource) }},
		{"ParseString(constraint)", func() { ParseString("Constraints.OpSpecification.Algorithm.name=tfidf") }},
		{"Clone", func() { src.Clone() }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != 1 {
			t.Errorf("%s allocates %v times, want 1", c.name, got)
		}
	}
}

// The slab is sized by key segments: dots in a value or a comment line add
// no node, so they add no byte.
func TestParseStringDotsOutsideKeysAllocateNothing(t *testing.T) {
	bytesOf := func(s string) uint64 {
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := ParseString(s); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	base := bytesOf("Execution.path=x\n# y\n")
	for _, s := range []string{
		"Execution.path=" + strings.Repeat("a.", 500) + "\n# y\n",
		"Execution.path=x\n# " + strings.Repeat("b.", 500) + "\n",
		"Execution.path=x\n// " + strings.Repeat("c.", 500) + "=d\n",
	} {
		if got := bytesOf(s); got != base {
			t.Errorf("ParseString(%.40q…) allocates %d bytes, %d without the dots", s, got, base)
		}
	}
}

func TestParseStringAllocatesUnderOneKiB(t *testing.T) {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseString("Constraints.Engine=Spark"); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 1024 {
		t.Fatalf("a one-line ParseString allocates %d bytes, want under 1 KiB", got)
	}
}
