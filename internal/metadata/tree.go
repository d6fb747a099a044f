// Package metadata implements the extensible meta-data description framework
// of IReS (D3.3 §2.1). Operators and datasets are described by generic,
// string-labelled trees whose first levels are predefined (Constraints,
// Execution, Optimization) and whose deeper levels are user-defined.
//
// Trees are parsed from the dotted-property format used throughout the
// paper's operator description files:
//
//	Constraints.Engine=Spark
//	Constraints.OpSpecification.Algorithm.name=LineCount
//	Execution.Argument0=In0.path.local
//
// Matching between abstract and materialized descriptions is a one-pass,
// merge-style walk over lexicographically ordered children, O(t) in the tree
// size, exactly as the paper's planner requires.
package metadata

import (
	"sort"
	"strings"
)

// Wildcard is the value an abstract description uses to match any value of a
// field in a materialized description.
const Wildcard = "*"

// Tree is a string-labelled metadata tree. Interior nodes carry children;
// leaves carry a Value. A node may have both a value and children (rare, but
// the format does not forbid it). The zero value is an empty tree ready to
// use.
type Tree struct {
	value    string
	children map[string]*Tree
	keys     []string // sorted child labels; maintained on insert
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// FromProperties builds a tree from dotted-path properties. It is the
// programmatic equivalent of parsing a description file.
func FromProperties(props map[string]string) *Tree {
	t := New()
	// Insert in sorted order for deterministic construction.
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Set(k, props[k])
	}
	return t
}

// Value returns the value stored at the node itself.
func (t *Tree) Value() string {
	if t == nil {
		return ""
	}
	return t.value
}

// Set stores value at the dotted path, creating intermediate nodes.
func (t *Tree) Set(path, value string) {
	node := t
	// The same strings.Cut walk as Node, creating missing segments.
	for more := path != ""; more; {
		var part string
		part, path, more = strings.Cut(path, ".")
		node = node.child(part, true)
	}
	node.value = value
}

// Get returns the value at the dotted path and whether the node exists.
func (t *Tree) Get(path string) (string, bool) {
	n := t.Node(path)
	if n == nil {
		return "", false
	}
	return n.value, true
}

// GetDefault returns the value at path, or def when the node is absent.
func (t *Tree) GetDefault(path, def string) string {
	if v, ok := t.Get(path); ok && v != "" {
		return v
	}
	return def
}

// Node returns the node at the dotted path, or nil when absent. An empty
// path returns the receiver.
func (t *Tree) Node(path string) *Tree {
	if t == nil {
		return nil
	}
	node := t
	if path == "" {
		return node
	}
	// strings.Cut walks the segments strings.Split would produce, without
	// the slice: "a." ends on an empty segment, ".a" starts on one.
	for more := true; more && node != nil; {
		var part string
		part, path, more = strings.Cut(path, ".")
		node = node.child(part, false)
	}
	return node
}

// Children returns the child labels in lexicographic order.
func (t *Tree) Children() []string {
	if t == nil {
		return nil
	}
	out := make([]string, len(t.keys))
	copy(out, t.keys)
	return out
}

// Child returns the named child node, or nil.
func (t *Tree) Child(label string) *Tree { return t.child(label, false) }

// Len reports the number of nodes in the tree, excluding the root.
func (t *Tree) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, k := range t.keys {
		n += 1 + t.children[k].Len()
	}
	return n
}

func (t *Tree) child(label string, create bool) *Tree {
	if t == nil {
		return nil
	}
	if c, ok := t.children[label]; ok {
		return c
	}
	if !create {
		return nil
	}
	if t.children == nil {
		t.children = make(map[string]*Tree)
	}
	c := &Tree{}
	t.children[label] = c
	i := sort.SearchStrings(t.keys, label)
	t.keys = append(t.keys, "")
	copy(t.keys[i+1:], t.keys[i:])
	t.keys[i] = label
	return c
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	if t == nil {
		return nil
	}
	c := &Tree{value: t.value}
	if len(t.keys) > 0 {
		c.children = make(map[string]*Tree, len(t.keys))
		c.keys = make([]string, len(t.keys))
		copy(c.keys, t.keys)
		for k, v := range t.children {
			c.children[k] = v.Clone()
		}
	}
	return c
}

// Walk visits every node in lexicographic path order, calling fn with the
// dotted path and node. The root is visited with an empty path.
func (t *Tree) Walk(fn func(path string, node *Tree)) {
	t.walk("", fn)
}

func (t *Tree) walk(prefix string, fn func(string, *Tree)) {
	if t == nil {
		return
	}
	fn(prefix, t)
	for _, k := range t.keys {
		p := k
		if prefix != "" {
			p = prefix + "." + k
		}
		t.children[k].walk(p, fn)
	}
}

// Properties flattens the tree back into sorted dotted-path/value pairs.
// Only nodes holding non-empty values are emitted.
func (t *Tree) Properties() []Property {
	var out []Property
	t.Walk(func(path string, node *Tree) {
		if path != "" && node.value != "" {
			out = append(out, Property{Path: path, Value: node.value})
		}
	})
	return out
}

// Property is one flattened key=value line of a description file.
type Property struct {
	Path  string
	Value string
}

func (p Property) String() string { return p.Path + "=" + p.Value }

// String renders the tree in description-file format: one path=value line
// per node holding a non-empty value, in lexicographic path order (the lines
// Properties returns). A value's `\:` is written `\\:`, which Parse reads
// back as `\:`, so parsing the rendering restores every value.
func (t *Tree) String() string {
	var b strings.Builder
	t.render(&b, make([]byte, 0, 64))
	return b.String()
}

func (t *Tree) render(b *strings.Builder, path []byte) {
	if t == nil {
		return
	}
	if len(path) > 0 && t.value != "" {
		b.Write(path)
		b.WriteByte('=')
		b.WriteString(strings.ReplaceAll(t.value, `\:`, `\\:`))
		b.WriteByte('\n')
	}
	if len(path) > 0 {
		path = append(path, '.')
	}
	for _, k := range t.keys {
		t.children[k].render(b, append(path, k...))
	}
}

// Equal reports whether two trees hold identical structure and values.
func (t *Tree) Equal(other *Tree) bool {
	if t == nil || other == nil {
		return t.Len() == 0 && other.Len() == 0 && t.Value() == other.Value()
	}
	if t.value != other.value || len(t.keys) != len(other.keys) {
		return false
	}
	for i, k := range t.keys {
		if other.keys[i] != k {
			return false
		}
		if !t.children[k].Equal(other.children[k]) {
			return false
		}
	}
	return true
}
