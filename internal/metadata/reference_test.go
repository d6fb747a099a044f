package metadata

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

// refTree is the tree Tree replaced: each node keeps its children twice, in
// a map for lookups and in a sorted label slice for order, and allocates
// every node, map and slice on its own. Kept as the oracle for the sorted
// sibling lists and their slabs.
type refTree struct {
	value    string
	children map[string]*refTree
	keys     []string // sorted child labels; maintained on insert
}

func (t *refTree) set(path, value string) {
	node := t
	for more := path != ""; more; {
		var part string
		part, path, more = strings.Cut(path, ".")
		node = node.child(part, true)
	}
	node.value = value
}

func (t *refTree) get(path string) (string, bool) {
	n := t.node(path)
	if n == nil {
		return "", false
	}
	return n.value, true
}

func (t *refTree) node(path string) *refTree {
	if t == nil {
		return nil
	}
	node := t
	if path == "" {
		return node
	}
	for more := true; more && node != nil; {
		var part string
		part, path, more = strings.Cut(path, ".")
		node = node.child(part, false)
	}
	return node
}

func (t *refTree) childLabels() []string {
	if t == nil {
		return nil
	}
	return slices.Clone(t.keys)
}

func (t *refTree) len() int {
	if t == nil {
		return 0
	}
	n := 0
	for _, k := range t.keys {
		n += 1 + t.children[k].len()
	}
	return n
}

func (t *refTree) child(label string, create bool) *refTree {
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
		t.children = make(map[string]*refTree)
	}
	c := &refTree{}
	t.children[label] = c
	i := sort.SearchStrings(t.keys, label)
	t.keys = slices.Insert(t.keys, i, label)
	return c
}

func (t *refTree) clone() *refTree {
	if t == nil {
		return nil
	}
	c := &refTree{value: t.value}
	if len(t.keys) > 0 {
		c.children = make(map[string]*refTree, len(t.keys))
		c.keys = slices.Clone(t.keys)
		for k, v := range t.children {
			c.children[k] = v.clone()
		}
	}
	return c
}

func (t *refTree) walk(prefix string, fn func(string, *refTree)) {
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

func (t *refTree) properties() []Property {
	var out []Property
	t.walk("", func(path string, node *refTree) {
		if path != "" && node.value != "" {
			out = append(out, Property{Path: path, Value: node.value})
		}
	})
	return out
}

func (t *refTree) String() string {
	var b strings.Builder
	for _, p := range t.properties() {
		b.WriteString(p.Path + "=" + strings.ReplaceAll(p.Value, `\:`, `\\:`) + "\n")
	}
	return b.String()
}

func (t *refTree) equal(other *refTree) bool {
	if t == nil || other == nil {
		return t.len() == 0 && other.len() == 0 && t.Value() == other.Value()
	}
	if t.value != other.value || !slices.Equal(t.keys, other.keys) {
		return false
	}
	for _, k := range t.keys {
		if !t.children[k].equal(other.children[k]) {
			return false
		}
	}
	return true
}

func (t *refTree) Value() string {
	if t == nil {
		return ""
	}
	return t.value
}

// refMatches is Matches over map lookups in the materialized tree.
func refMatches(a, m *refTree) bool {
	if a == nil {
		return true
	}
	if a.value != "" {
		if m == nil {
			return false
		}
		if a.value != Wildcard && m.value != a.value {
			return false
		}
	}
	for _, k := range a.keys {
		var mc *refTree
		if m != nil {
			mc = m.children[k]
		}
		if !refMatches(a.children[k], mc) {
			return false
		}
	}
	return true
}

// refMatchReason is MatchReason over map lookups in the materialized tree.
func refMatchReason(prefix string, a, m *refTree) string {
	if a == nil {
		return ""
	}
	at := func(p string) string {
		if p == "" {
			return "(root)"
		}
		return p
	}
	if a.value != "" && a.value != Wildcard {
		if m == nil {
			return "missing field " + at(prefix)
		}
		if m.value != a.value {
			return "field " + at(prefix) + ": want " + a.value + ", have " + m.value
		}
	}
	if a.value == Wildcard && m == nil {
		return "missing field " + at(prefix) + " (wildcard requires presence)"
	}
	for _, k := range a.keys {
		p := k
		if prefix != "" {
			p = prefix + "." + k
		}
		var mc *refTree
		if m != nil {
			mc = m.children[k]
		}
		if reason := refMatchReason(p, a.children[k], mc); reason != "" {
			return reason
		}
	}
	return ""
}

// walkOrder lists the dotted paths and values Walk visits, in order.
func walkOrder(t *Tree) []Property {
	var out []Property
	t.Walk(func(p string, n *Tree) { out = append(out, Property{p, n.value}) })
	return out
}

func refWalkOrder(t *refTree) []Property {
	var out []Property
	t.walk("", func(p string, n *refTree) { out = append(out, Property{p, n.value}) })
	return out
}

// probePaths returns every path of got and want, each also with a child
// that exists in neither, an empty tail segment and an empty head segment,
// plus extra.
func probePaths(got *Tree, want *refTree, extra []string) []string {
	paths := append([]string{"", ".", "..", "Constraints", "zz"}, extra...)
	for _, p := range walkOrder(got) {
		paths = append(paths, p.Path)
	}
	for _, p := range refWalkOrder(want) {
		paths = append(paths, p.Path, p.Path+".\xff", p.Path+".", "."+p.Path, p.Path+"\x00")
	}
	return paths
}

// diffTree compares every read of got with want's: the rendering,
// properties, walk order, Len, and Node, Get and Children of every probe
// path. It returns "" when they agree.
func diffTree(got *Tree, want *refTree, extra []string) string {
	if (got == nil) != (want == nil) {
		return "one tree is nil"
	}
	if g, w := got.String(), want.String(); g != w {
		return "String " + g + " != " + w
	}
	if !slices.Equal(got.Properties(), want.properties()) {
		return "Properties differ"
	}
	if !slices.Equal(walkOrder(got), refWalkOrder(want)) {
		return "Walk order differs"
	}
	if got.Len() != want.len() {
		return "Len differs"
	}
	for _, p := range probePaths(got, want, extra) {
		g, w := got.Node(p), want.node(p)
		if (g == nil) != (w == nil) {
			return "Node(" + p + ") presence differs"
		}
		gv, gok := got.Get(p)
		wv, wok := want.get(p)
		if gv != wv || gok != wok {
			return "Get(" + p + ") differs"
		}
		if !slices.Equal(g.Children(), w.childLabels()) || g.Len() != w.len() || g.Value() != w.Value() {
			return "node " + p + " differs"
		}
	}
	return ""
}

// FuzzTreeMatchesReference runs a script of tree-building steps on three
// Tree slots and three refTree slots side by side and, after every step,
// compares each slot's reads, and Equal, Matches and MatchReason between
// every two slots in both directions, from every node of the first. Steps
// are separated by 0x1e, fields by 0x1f; a step's first field is its op
// letter and its slots' digits:
//
//	p<i> text        slot i = ParseString(text), when it parses
//	s<i> path value  slot i .Set(path, value)
//	c<i><j> path     slot i = slot j .Node(path).Clone(), when present
//	u<i> at path val slot i .Node(at).Set(path, val), when present
func FuzzTreeMatchesReference(f *testing.F) {
	step := func(fields ...string) string { return strings.Join(fields, "\x1f") }
	script := func(steps ...string) string { return strings.Join(steps, "\x1e") }
	for _, d := range libraryDescriptions(f) {
		f.Add(script(step("p0", d), step("c10", "Constraints"), step("s1", "Engine", "*"), step("u0", "Constraints", "Zeta.x", "1")))
	}
	f.Add(script(
		step("p0", "a.b=1\na.c=2\nb=3\n# x.y.z\n"), step("p1", "a.b=1"), step("s2", "a.b", "*"),
		step("c21", "a"), step("u0", "a", "b", "9"), step("s1", "", "root"), step("c00", ""),
	))
	f.Add(script(step("s0", "a..b", "1"), step("s0", ".", "2"), step("s1", "a.", "3"), step("c20", "a"), step("u2", "", "c", "4")))
	f.Add(script(step("p0", "x=a.b.c.d.e.f\ny.z=\\:"), step("c10", "y"), step("s1", "z", "*"), step("s1", "w", "q")))
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 4096 {
			return
		}
		var got [3]*Tree
		var want [3]*refTree
		for i := range got {
			got[i], want[i] = New(), &refTree{}
		}
		var paths []string
		for n, st := range strings.Split(s, "\x1e") {
			fields := append(strings.Split(st, "\x1f"), "", "", "")
			op, slots := fields[0], []int{0, 0}
			for k := range slots {
				if len(op) > k+1 {
					slots[k] = int(op[k+1]) % len(got)
				}
			}
			i, j := slots[0], slots[1]
			if op == "" {
				continue
			}
			switch op[0] {
			case 'p':
				g, err := ParseString(fields[1])
				w, wantErr := referenceParse(strings.NewReader(fields[1]))
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("step %d: ParseString error %v, reference %v", n, err, wantErr)
				}
				if err == nil {
					got[i], want[i] = g, w
				}
			case 's':
				got[i].Set(fields[1], fields[2])
				want[i].set(fields[1], fields[2])
				paths = append(paths, fields[1])
			case 'c':
				if g, w := got[j].Node(fields[1]), want[j].node(fields[1]); g != nil && w != nil {
					got[i], want[i] = g.Clone(), w.clone()
				}
				paths = append(paths, fields[1])
			case 'u':
				if g, w := got[i].Node(fields[1]), want[i].node(fields[1]); g != nil && w != nil {
					g.Set(fields[2], fields[3])
					w.set(fields[2], fields[3])
				}
				paths = append(paths, fields[1], fields[1]+"."+fields[2])
			}
			for k := range got {
				if d := diffTree(got[k], want[k], paths); d != "" {
					t.Fatalf("step %d (%q): slot %d: %s", n, op, k, d)
				}
			}
			for a := range got {
				for m := range got {
					for _, p := range refWalkOrder(want[a]) {
						ga, wa := got[a].Node(p.Path), want[a].node(p.Path)
						if g, w := ga.Equal(got[m]), wa.equal(want[m]); g != w {
							t.Fatalf("step %d: Equal(%d at %q, %d) = %v, reference %v", n, a, p.Path, m, g, w)
						}
						if g, w := Matches(ga, got[m]), refMatches(wa, want[m]); g != w {
							t.Fatalf("step %d: Matches(%d at %q, %d) = %v, reference %v", n, a, p.Path, m, g, w)
						}
						if g, w := MatchReason(ga, got[m]), refMatchReason("", wa, want[m]); g != w {
							t.Fatalf("step %d: MatchReason(%d at %q, %d) = %q, reference %q", n, a, p.Path, m, g, w)
						}
					}
				}
			}
		}
	})
}
