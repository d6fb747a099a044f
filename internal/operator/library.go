package operator

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/asap-project/ires/internal/metadata"
)

// Library is the IReS operator library: the store of materialized operators,
// named datasets and the abstract operators workflow graphs name. Matching
// an abstract operator against the library is accelerated by an index on
// highly selective metadata attributes — the algorithm name — so only
// operators with the right algorithm are examined by the full tree-matching
// pass (D3.3 §2.2.3).
//
// Library is safe for concurrent use.
type Library struct {
	mu          sync.RWMutex
	ops         map[string]*Materialized
	byAlgorithm map[string][]*Materialized // algorithm -> its operators in name order
	datasets    map[string]*Dataset
	abstracts   map[string]*Abstract
	// gen counts materialized-operator mutations; the planner re-derives its
	// engine list and match sets when it moves.
	gen uint64
}

// NewLibrary returns an empty library.
func NewLibrary() *Library {
	return &Library{
		ops:         make(map[string]*Materialized),
		byAlgorithm: make(map[string][]*Materialized),
		datasets:    make(map[string]*Dataset),
		abstracts:   make(map[string]*Abstract),
	}
}

// Gen returns the library's operator-mutation generation counter.
func (l *Library) Gen() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.gen
}

// byName orders operators by name, the order every listing returns.
func byName(m *Materialized, name string) int { return strings.Compare(m.Name, name) }

// AddOperator registers a materialized operator. Re-registering a name
// replaces the previous definition.
func (l *Library) AddOperator(m *Materialized) error {
	if m == nil {
		return fmt.Errorf("library: nil operator")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if old, ok := l.ops[m.Name]; ok {
		ms := l.byAlgorithm[old.Algorithm()]
		i, _ := slices.BinarySearchFunc(ms, old.Name, byName)
		l.byAlgorithm[old.Algorithm()] = slices.Delete(ms, i, i+1)
	}
	l.ops[m.Name] = m
	ms := l.byAlgorithm[m.Algorithm()]
	i, _ := slices.BinarySearchFunc(ms, m.Name, byName)
	l.byAlgorithm[m.Algorithm()] = slices.Insert(ms, i, m)
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
	return l.operatorsLocked()
}

func (l *Library) operatorsLocked() []*Materialized {
	out := make([]*Materialized, 0, len(l.ops))
	for _, m := range l.ops {
		out = append(out, m)
	}
	slices.SortFunc(out, func(a, b *Materialized) int { return byName(a, b.Name) })
	return out
}

// Implementations returns the registered operators that implement alg, in
// name order: the algorithm index's entry, copied. An operator that
// declares no algorithm implements none, so "" has none.
func (l *Library) Implementations(alg string) []*Materialized {
	if alg == "" {
		return nil
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return slices.Clone(l.byAlgorithm[alg])
}

// FindMaterialized returns all materialized operators matching the abstract
// operator, in name order. An abstract operator that names an algorithm is
// tree-matched against that algorithm's index entry only; one with no
// algorithm, or the wildcard, against every operator.
func (l *Library) FindMaterialized(a *Abstract) []*Materialized {
	l.mu.RLock()
	defer l.mu.RUnlock()
	alg := a.Algorithm()
	candidates := l.byAlgorithm[alg]
	if alg == "" || alg == metadata.Wildcard {
		candidates = l.operatorsLocked()
	}
	var out []*Materialized
	for _, m := range candidates {
		if m.MatchesAbstract(a) {
			out = append(out, m)
		}
	}
	return out
}

// ResetMatchIndex does nothing. Its one caller is the bench/e2e per-layer
// cell operator.match_us, which calls it before timing FindMaterialized; the
// library keeps no match results, so every FindMaterialized is the cold
// algorithm-indexed scan. It goes with that call.
func (l *Library) ResetMatchIndex() {}

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
	slices.Sort(out)
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

// AddAbstract registers a named abstract operator, replacing one of the same
// name. It does not move Gen: no match set depends on it.
func (l *Library) AddAbstract(a *Abstract) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.abstracts[a.Name] = a
}

// Abstract returns a registered abstract operator by name.
func (l *Library) Abstract(name string) (*Abstract, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	a, ok := l.abstracts[name]
	return a, ok
}

// Len reports the number of registered operators.
func (l *Library) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.ops)
}
