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
// bytes; a "\r\n" ending is trimmed with the rest of the whitespace.
func ParseString(s string) (*Tree, error) {
	t := New()
	for lineNo := 1; s != ""; lineNo++ {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("metadata: line %d: missing '=' in %q", lineNo, line)
		}
		key = strings.TrimSpace(key)
		val = strings.ReplaceAll(strings.TrimSpace(val), `\:`, ":")
		if key == "" {
			return nil, fmt.Errorf("metadata: line %d: empty key", lineNo)
		}
		if err := validateKey(key); err != nil {
			return nil, fmt.Errorf("metadata: line %d: %v", lineNo, err)
		}
		t.Set(key, val)
	}
	return t, nil
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
