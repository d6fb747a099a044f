package operator

import (
	"fmt"
	"sort"
	"sync"

	"github.com/asap-project/ires/internal/metadata"
)

// Library is the IReS operator library: the store of materialized operators
// and named datasets. Matching an abstract operator against the library is
// accelerated by an index on highly selective metadata attributes — the
// algorithm name — so only operators with the right algorithm are examined
// by the full tree-matching pass (D3.3 §2.2.3). On top of that, full match
// results are memoized per abstract constraints tree, so repeated
// FindMaterialized calls are map lookups instead of tree-matching scans; an
// operator mutation clears the memo and it rebuilds on demand.
//
// Library is safe for concurrent use.
type Library struct {
	mu          sync.RWMutex
	ops         map[string]*Materialized
	byAlgorithm map[string][]string // algorithm -> sorted operator names
	datasets    map[string]*Dataset
	// matchIdx memoizes FindMaterialized: abstract Constraints tree string
	// -> the sorted names of the matching operators. Every operator
	// mutation clears it.
	matchIdx map[string][]string
	// gen counts operator mutations; the planner re-derives its engine list
	// and match sets when it moves.
	gen uint64
}

// maxMatchIdx bounds the number of distinct abstract shapes memoized;
// overflow clears the index (it rebuilds on demand).
const maxMatchIdx = 256

// NewLibrary returns an empty library.
func NewLibrary() *Library {
	return &Library{
		ops:         make(map[string]*Materialized),
		byAlgorithm: make(map[string][]string),
		datasets:    make(map[string]*Dataset),
		matchIdx:    make(map[string][]string),
	}
}

// Gen returns the library's operator-mutation generation counter.
func (l *Library) Gen() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.gen
}

// AddOperator registers a materialized operator. Re-registering a name
// replaces the previous definition.
func (l *Library) AddOperator(m *Materialized) error {
	if m == nil {
		return fmt.Errorf("library: nil operator")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if old, ok := l.ops[m.Name]; ok {
		l.removeFromIndexLocked(old)
	}
	l.ops[m.Name] = m
	alg := m.Algorithm()
	names := l.byAlgorithm[alg]
	i := sort.SearchStrings(names, m.Name)
	if i == len(names) || names[i] != m.Name {
		names = append(names, "")
		copy(names[i+1:], names[i:])
		names[i] = m.Name
		l.byAlgorithm[alg] = names
	}
	clear(l.matchIdx)
	l.gen++
	return nil
}

// AddOperatorDescription parses a description string and registers the
// resulting operator under the given name.
func (l *Library) AddOperatorDescription(name, description string) (*Materialized, error) {
	meta, err := metadata.ParseString(description)
	if err != nil {
		return nil, fmt.Errorf("library: operator %s: %w", name, err)
	}
	m, err := NewMaterialized(name, meta)
	if err != nil {
		return nil, err
	}
	if err := l.AddOperator(m); err != nil {
		return nil, err
	}
	return m, nil
}

func (l *Library) removeFromIndexLocked(m *Materialized) {
	alg := m.Algorithm()
	names := l.byAlgorithm[alg]
	i := sort.SearchStrings(names, m.Name)
	if i < len(names) && names[i] == m.Name {
		l.byAlgorithm[alg] = append(names[:i], names[i+1:]...)
	}
}

// Operator returns a registered operator by name.
func (l *Library) Operator(name string) (*Materialized, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	m, ok := l.ops[name]
	return m, ok
}

// Operators returns all registered operators sorted by name.
func (l *Library) Operators() []*Materialized {
	l.mu.RLock()
	defer l.mu.RUnlock()
	names := make([]string, 0, len(l.ops))
	for n := range l.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Materialized, len(names))
	for i, n := range names {
		out[i] = l.ops[n]
	}
	return out
}

// FindMaterialized returns all materialized operators matching the abstract
// operator, in deterministic (name) order. Matching depends only on the
// abstract operator's Constraints subtree, so results are memoized per
// constraints shape until the next operator mutation; a miss falls back to
// the algorithm-indexed tree-matching scan.
func (l *Library) FindMaterialized(a *Abstract) []*Materialized {
	key := a.consKey
	l.mu.RLock()
	if names, ok := l.matchIdx[key]; ok {
		out := l.resolveLocked(names)
		l.mu.RUnlock()
		return out
	}
	l.mu.RUnlock()

	l.mu.Lock()
	defer l.mu.Unlock()
	if names, ok := l.matchIdx[key]; ok {
		return l.resolveLocked(names)
	}
	names := l.matchNamesLocked(a)
	if len(l.matchIdx) >= maxMatchIdx {
		clear(l.matchIdx)
	}
	l.matchIdx[key] = names
	return l.resolveLocked(names)
}

// matchNamesLocked runs the algorithm-prefiltered tree-matching scan and
// returns the sorted matching operator names.
func (l *Library) matchNamesLocked(a *Abstract) []string {
	var candidates []string
	if alg := a.Algorithm(); alg != "" && alg != metadata.Wildcard {
		candidates = l.byAlgorithm[alg]
	} else {
		candidates = make([]string, 0, len(l.ops))
		for n := range l.ops {
			candidates = append(candidates, n)
		}
		sort.Strings(candidates)
	}
	var names []string
	for _, name := range candidates {
		if l.ops[name].MatchesAbstract(a) {
			names = append(names, name)
		}
	}
	return names
}

// resolveLocked maps operator names to their current definitions.
func (l *Library) resolveLocked(names []string) []*Materialized {
	if len(names) == 0 {
		return nil
	}
	out := make([]*Materialized, 0, len(names))
	for _, n := range names {
		if m, ok := l.ops[n]; ok {
			out = append(out, m)
		}
	}
	return out
}

// ResetMatchIndex drops the memoized FindMaterialized results; they rebuild
// on demand. Match results are unchanged — the generation counter does not
// move — so this exists for cold-start benchmarking, not invalidation,
// which every operator mutation does itself.
func (l *Library) ResetMatchIndex() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.matchIdx)
}

// Engines returns the distinct engines of the registered operators, sorted.
// The planner snapshots engine availability over this set once per build.
func (l *Library) Engines() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	seen := make(map[string]bool)
	for _, m := range l.ops {
		seen[m.Engine()] = true
	}
	out := make([]string, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// AddDataset registers a named dataset description.
func (l *Library) AddDataset(d *Dataset) error {
	if d == nil {
		return fmt.Errorf("library: nil dataset")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.datasets[d.Name] = d
	return nil
}

// AddDatasetDescription parses a dataset description string and registers it.
func (l *Library) AddDatasetDescription(name, description string) (*Dataset, error) {
	meta, err := metadata.ParseString(description)
	if err != nil {
		return nil, fmt.Errorf("library: dataset %s: %w", name, err)
	}
	d := NewDataset(name, meta)
	if err := l.AddDataset(d); err != nil {
		return nil, err
	}
	return d, nil
}

// Dataset returns a registered dataset by name.
func (l *Library) Dataset(name string) (*Dataset, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	d, ok := l.datasets[name]
	return d, ok
}

// Len reports the number of registered operators.
func (l *Library) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.ops)
}
