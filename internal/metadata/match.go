package metadata

// Matching semantics (D3.3 §2.1, §2.2.3):
//
//   - An *abstract* description matches a *materialized* one when every
//     constraint the abstract tree states is consistent in the materialized
//     tree. "Consistent" means: equal leaf values, or the abstract value is
//     the Wildcard "*" (any materialized value, which must exist), or the
//     abstract node is an interior node whose children all match.
//   - Fields present only in the materialized tree are ignored — a
//     materialized operator may carry arbitrarily richer metadata.
//   - Matching is a single pass over the abstract tree. At each level it
//     merges the abstract node's sorted sibling list with its counterpart's,
//     so each materialized sibling is passed once: O(a+m) in the number of
//     nodes of the two trees.
//
// The same primitive is used to match datasets to operator inputs: the
// operator's Constraints.InputN subtree plays the abstract role and the
// dataset's Constraints subtree the materialized role.

// Matches reports whether the materialized tree satisfies every constraint
// of the abstract tree.
func Matches(abstract, materialized *Tree) bool {
	return matches(abstract, materialized)
}

func matches(a, m *Tree) bool {
	if a == nil {
		return true
	}
	if a.value != "" {
		// A stated constraint (including the wildcard, which requires
		// presence with any value) needs a materialized counterpart.
		if m == nil {
			return false
		}
		if a.value != Wildcard && m.value != a.value {
			return false
		}
	}
	mc := m.firstChild()
	for ac := a.first; ac != nil; ac = ac.next {
		var match *Tree
		mc, match = seek(mc, ac.label)
		if !matches(ac, match) {
			return false
		}
	}
	return true
}

// MatchReason explains why a materialized tree fails to satisfy an abstract
// tree; it returns "" when the trees match. Useful for diagnostics in the
// operator library and the CLI.
func MatchReason(abstract, materialized *Tree) string {
	return matchReason("", abstract, materialized)
}

func matchReason(prefix string, a, m *Tree) string {
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
	mc := m.firstChild()
	for ac := a.first; ac != nil; ac = ac.next {
		p := ac.label
		if prefix != "" {
			p = prefix + "." + ac.label
		}
		var match *Tree
		mc, match = seek(mc, ac.label)
		if reason := matchReason(p, ac, match); reason != "" {
			return reason
		}
	}
	return ""
}
