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
// A node keeps its children as one sibling list sorted by label. Matching
// between abstract and materialized descriptions is the merge walk over two
// such lists, level by level, O(a+m) in the two trees' sizes, exactly as the
// paper's planner requires; a path lookup scans each level's siblings.
//
// A tree built at once (ParseString, FromProperties, Clone) takes all its
// nodes from one allocation.
package metadata

import "strings"

// Wildcard is the value an abstract description uses to match any value of a
// field in a materialized description.
const Wildcard = "*"

// Tree is a string-labelled metadata tree. Interior nodes carry children;
// leaves carry a Value. A node may have both a value and children (rare, but
// the format does not forbid it). The zero value is an empty tree ready to
// use.
type Tree struct {
	label string // the node's label under its parent; unused at a root
	value string
	first *Tree // the first child; the rest follow by next in label order
	next  *Tree // the next sibling
}

// slab hands out the nodes of a tree built at once. It never grows past the
// capacity it was made with, so the nodes it handed out stay put; past it,
// and for a nil slab, a node is allocated alone.
type slab []Tree

// newSlab returns the root of a tree and a slab for n more nodes, in one
// allocation.
func newSlab(n int) (*Tree, slab) {
	s := make(slab, 1, n+1)
	return &s[0], s
}

func (s *slab) node(label string) *Tree {
	if s == nil || len(*s) == cap(*s) {
		return &Tree{label: label}
	}
	*s = (*s)[:len(*s)+1]
	n := &(*s)[len(*s)-1]
	n.label = label
	return n
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// FromProperties builds a tree from dotted-path properties. It is the
// programmatic equivalent of parsing a description file.
func FromProperties(props map[string]string) *Tree {
	n := 0
	for k := range props {
		if k != "" {
			n += strings.Count(k, ".") + 1
		}
	}
	// Sibling lists are sorted on insert, so the map's order does not show.
	t, nodes := newSlab(n)
	for k, v := range props {
		t.set(k, v, &nodes)
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
func (t *Tree) Set(path, value string) { t.set(path, value, nil) }

// set is Set taking the nodes it creates from s.
func (t *Tree) set(path, value string, s *slab) {
	node := t
	// The same strings.Cut walk as Node, creating missing segments.
	for more := path != ""; more; {
		var part string
		part, path, more = strings.Cut(path, ".")
		node = node.insert(part, s)
	}
	node.value = value
}

// insert returns the child labelled label, linking a new one from s into its
// sorted place when there is none.
func (t *Tree) insert(label string, s *slab) *Tree {
	link := &t.first
	for c := *link; c != nil && c.label <= label; c = *link {
		if c.label == label {
			return c
		}
		link = &c.next
	}
	c := s.node(label)
	c.next, *link = *link, c
	return c
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
		node = node.Child(part)
	}
	return node
}

// Children returns the child labels in lexicographic order.
func (t *Tree) Children() []string {
	if t == nil {
		return nil
	}
	n := 0
	for c := t.first; c != nil; c = c.next {
		n++
	}
	out := make([]string, 0, n)
	for c := t.first; c != nil; c = c.next {
		out = append(out, c.label)
	}
	return out
}

// Child returns the named child node, or nil.
func (t *Tree) Child(label string) *Tree {
	_, c := seek(t.firstChild(), label)
	return c
}

// firstChild returns t's first child, or nil for a nil t.
func (t *Tree) firstChild() *Tree {
	if t == nil {
		return nil
	}
	return t.first
}

// seek advances the sibling cursor c past the siblings labelled below label.
// It returns the new cursor and the sibling labelled label, or nil.
func seek(c *Tree, label string) (cursor, match *Tree) {
	for c != nil && c.label < label {
		c = c.next
	}
	if c != nil && c.label == label {
		return c, c
	}
	return c, nil
}

// Len reports the number of nodes in the tree, excluding the root.
func (t *Tree) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for c := t.first; c != nil; c = c.next {
		n += 1 + c.Len()
	}
	return n
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	if t == nil {
		return nil
	}
	c, nodes := newSlab(t.Len())
	c.value = t.value
	c.copyChildren(t, &nodes)
	return c
}

// copyChildren links copies of src's descendants, taken from s, under t.
func (t *Tree) copyChildren(src *Tree, s *slab) {
	link := &t.first
	for sc := src.first; sc != nil; sc = sc.next {
		n := s.node(sc.label)
		n.value = sc.value
		n.copyChildren(sc, s)
		*link = n
		link = &n.next
	}
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
	for c := t.first; c != nil; c = c.next {
		p := c.label
		if prefix != "" {
			p = prefix + "." + c.label
		}
		c.walk(p, fn)
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
	for c := t.first; c != nil; c = c.next {
		c.render(b, append(path, c.label...))
	}
}

// Equal reports whether two trees hold identical structure and values.
func (t *Tree) Equal(other *Tree) bool {
	if t == nil || other == nil {
		return t.Len() == 0 && other.Len() == 0 && t.Value() == other.Value()
	}
	if t.value != other.value {
		return false
	}
	a, b := t.first, other.first
	for ; a != nil && b != nil; a, b = a.next, b.next {
		if a.label != b.label || !a.Equal(b) {
			return false
		}
	}
	return a == nil && b == nil
}
