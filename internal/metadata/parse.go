package metadata

import (
	"fmt"
	"strings"
)

// ParseString parses a description file in the dotted-property format of
// D3.3 §3:
//
//	# comment
//	Constraints.Engine=Spark
//	Constraints.OpSpecification.Algorithm.name = LineCount
//	Execution.path=hdfs:///user/root/asap-server.log
//
// Blank lines and lines starting with '#' or '//' are ignored. Whitespace
// around keys and values is trimmed. Escaped colons ("\:") — which appear in
// the paper's HDFS paths — are unescaped.
//
// The walk slices lines out of s in place, so keys and values share its
// bytes; a "\r\n" ending is trimmed with the rest of the whitespace. A first
// pass validates every line and counts its key's segments, which bounds the
// nodes the second pass creates: the tree is one allocation, unless a value
// holds an escaped colon.
func ParseString(s string) (*Tree, error) {
	n := 0
	if err := eachProperty(s, func(key, _ string) { n += strings.Count(key, ".") + 1 }); err != nil {
		return nil, err
	}
	t, nodes := newSlab(n)
	// The first pass found every line well formed.
	_ = eachProperty(s, func(key, val string) { t.set(key, strings.ReplaceAll(val, `\:`, ":"), &nodes) })
	return t, nil
}

// eachProperty calls fn with the trimmed key and raw value of each property
// line of s, in order, and returns the error of the first malformed line.
// fn sees no line at or past it.
func eachProperty(s string, fn func(key, val string)) error {
	for lineNo := 1; s != ""; lineNo++ {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return fmt.Errorf("metadata: line %d: missing '=' in %q", lineNo, line)
		}
		key = strings.TrimSpace(key)
		if key == "" {
			return fmt.Errorf("metadata: line %d: empty key", lineNo)
		}
		if err := validateKey(key); err != nil {
			return fmt.Errorf("metadata: line %d: %v", lineNo, err)
		}
		fn(key, strings.TrimSpace(val))
	}
	return nil
}

// MustParse parses a description and panics on error. Intended for
// package-level literals in tests and examples.
func MustParse(s string) *Tree {
	t, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return t
}

// validateKey rejects a non-empty key with an empty segment: a leading or
// trailing dot, or two dots in a row.
func validateKey(key string) error {
	if strings.HasPrefix(key, ".") || strings.HasSuffix(key, ".") || strings.Contains(key, "..") {
		return fmt.Errorf("empty path segment in key %q", key)
	}
	return nil
}
