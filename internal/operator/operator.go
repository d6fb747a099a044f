// Package operator defines the execution artefacts of IReS: datasets,
// abstract operators, materialized operators, and the operator library that
// stores materialized implementations together with a selective-attribute
// index used by the planner's matching phase (D3.3 §2.1, §2.2.3).
package operator

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/asap-project/ires/internal/metadata"
)

// Well-known metadata paths used across the platform. These mirror the
// description files of D3.3 §3.
const (
	PathEngine        = "Constraints.Engine"
	PathAlgorithm     = "Constraints.OpSpecification.Algorithm.name"
	PathExecutionPath = "Execution.path"
	PathDocuments     = "Optimization.documents"
	PathSize          = "Optimization.size"
)

// Dataset describes a dataset node. A dataset is materialized when it has
// concrete execution information (a path) and existing metadata; abstract
// datasets (intermediate results in a workflow) carry no execution info.
type Dataset struct {
	Name string
	Meta *metadata.Tree
}

// NewDataset builds a dataset from its description tree. A nil tree is
// replaced by an empty one.
func NewDataset(name string, meta *metadata.Tree) *Dataset {
	if meta == nil {
		meta = metadata.New()
	}
	return &Dataset{Name: name, Meta: meta}
}

// IsMaterialized reports whether the dataset refers to existing data
// (carries an Execution.path).
func (d *Dataset) IsMaterialized() bool {
	if d == nil {
		return false
	}
	// Get(PathExecutionPath) by its two labels, without splitting the path:
	// the planner asks this of every dataset of every build.
	return d.Meta.Child("Execution").Child("path").Value() != ""
}

// Size returns the dataset's declared record count (Optimization.documents,
// falling back to Optimization.count) and byte size (Optimization.size), 0
// when unknown. A declared number no int64 holds is an error (see count).
func (d *Dataset) Size() (records, bytes int64, err error) {
	if d == nil || d.Meta == nil {
		return 0, 0, nil
	}
	records, ok, err := d.count(PathDocuments)
	if err == nil && !ok {
		records, _, err = d.count("Optimization.count")
	}
	if err == nil {
		bytes, _, err = d.count(PathSize)
	}
	return records, bytes, err
}

// count reads the number declared at path: ok is false when there is none
// (the count is unknown). One that is NaN, infinite, negative or 2^63 or
// more is an error naming the dataset and the value, where a plain
// conversion would wrap.
func (d *Dataset) count(path string) (n int64, ok bool, err error) {
	v, ok := d.Meta.Get(path)
	if !ok {
		return 0, false, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return 0, false, nil
	}
	if !(f >= 0 && f < 1<<63) {
		return 0, true, fmt.Errorf("dataset %s declares %s=%s: want a count in [0, 2^63)", d.Name, path, v)
	}
	return int64(f), true, nil
}

// Constraints returns the dataset's Constraints subtree (possibly nil).
func (d *Dataset) Constraints() *metadata.Tree {
	if d == nil || d.Meta == nil {
		return nil
	}
	return d.Meta.Node("Constraints")
}

// Abstract is an operator as it appears in an abstract workflow: a
// functionality contract (algorithm name, arity) that materialized
// implementations must satisfy. Build one with NewAbstract; Meta is
// read-only afterwards (its rendering is taken at construction).
type Abstract struct {
	Name string
	Meta *metadata.Tree

	def string
}

// NewAbstract builds an abstract operator from its description tree.
func NewAbstract(name string, meta *metadata.Tree) *Abstract {
	if meta == nil {
		meta = metadata.New()
	}
	return &Abstract{Name: name, Meta: meta, def: meta.String()}
}

// Definition returns the canonical rendering of the description tree.
func (a *Abstract) Definition() string { return a.def }

// Algorithm returns the declared algorithm name ("" when unconstrained).
func (a *Abstract) Algorithm() string { return a.Meta.GetDefault(PathAlgorithm, "") }

// Tag is a dataset tag as the planner's tables key it: a constraints tree
// and its canonical rendering. Tags are immutable and shared.
type Tag struct {
	Meta *metadata.Tree
	Key  string
}

// slot is one Constraints.Input<k> or Constraints.Output<k> subtree.
type slot struct {
	k int
	Tag
}

// Materialized is a concrete operator implementation bound to an engine,
// stored in the operator library. Build one with NewMaterialized, which
// resolves every fact the planner asks per candidate evaluation — engine,
// algorithm, input requirements, output tags, parameters — once. Meta, and
// every tree and map the accessors return, is shared and read-only
// afterwards: to change an operator, build and register a new one.
type Materialized struct {
	Name string
	Meta *metadata.Tree

	engine, algorithm, def string
	inputs, outputs        []slot
	defaultOut             Tag // tag of an output without a Constraints.Output<k>
	params                 map[string]float64
}

// NewMaterialized builds a materialized operator from its description.
func NewMaterialized(name string, meta *metadata.Tree) (*Materialized, error) {
	if meta == nil {
		return nil, fmt.Errorf("operator %s: nil metadata", name)
	}
	m := &Materialized{
		Name: name, Meta: meta, def: meta.String(),
		engine:    meta.GetDefault(PathEngine, ""),
		algorithm: meta.GetDefault(PathAlgorithm, ""),
		params:    make(map[string]float64),
	}
	if m.engine == "" {
		return nil, fmt.Errorf("operator %s: missing compulsory field %s", name, PathEngine)
	}
	if m.algorithm == "" {
		return nil, fmt.Errorf("operator %s: missing compulsory field %s", name, PathAlgorithm)
	}
	cons := meta.Node("Constraints")
	m.inputs, m.outputs = resolveSlots(cons, "Input"), resolveSlots(cons, "Output")
	m.defaultOut.Meta = metadata.New()
	m.defaultOut.Meta.Set("Engine", m.engine)
	m.defaultOut.Key = m.defaultOut.Meta.String()
	if node := meta.Node("Optimization.param"); node != nil {
		for _, name := range node.Children() {
			if v, err := strconv.ParseFloat(node.Child(name).Value(), 64); err == nil {
				m.params[name] = v
			}
		}
	}
	return m, nil
}

// resolveSlots collects the Constraints.<prefix><k> subtrees. The label must
// end in the canonical decimal of k: "Input01" is not input 1, exactly as
// the fmt.Sprintf("Input%d") lookups this replaces saw it.
func resolveSlots(cons *metadata.Tree, prefix string) []slot {
	var out []slot
	for _, label := range cons.Children() {
		suffix, ok := strings.CutPrefix(label, prefix)
		if !ok {
			continue
		}
		if k, err := strconv.Atoi(suffix); err == nil && strconv.Itoa(k) == suffix {
			t := cons.Child(label)
			out = append(out, slot{k, Tag{t, t.String()}})
		}
	}
	return out
}

// slotTag returns slot k's tag, if the description declares that slot.
func slotTag(slots []slot, k int) (Tag, bool) {
	for _, s := range slots {
		if s.k == k {
			return s.Tag, true
		}
	}
	return Tag{}, false
}

// Engine returns the engine the implementation runs on.
func (m *Materialized) Engine() string { return m.engine }

// Algorithm returns the implemented algorithm name.
func (m *Materialized) Algorithm() string { return m.algorithm }

// Definition returns the canonical rendering of the description tree.
func (m *Materialized) Definition() string { return m.def }

// InputConstraint returns the constraints subtree for input i
// (Constraints.Input<i>), or nil when the operator accepts anything.
func (m *Materialized) InputConstraint(i int) *metadata.Tree {
	t, _ := slotTag(m.inputs, i)
	return t.Meta
}

// OutputSpec returns the specification subtree for output i
// (Constraints.Output<i>), or nil when unspecified.
func (m *Materialized) OutputSpec(i int) *metadata.Tree {
	t, _ := slotTag(m.outputs, i)
	return t.Meta
}

// OutputTag returns the tag of the dataset output i produces: its
// specification subtree, or {Engine=<engine>} when it has none.
func (m *Materialized) OutputTag(i int) Tag {
	if t, ok := slotTag(m.outputs, i); ok {
		return t
	}
	return m.defaultOut
}

// MatchesAbstract reports whether this implementation satisfies the abstract
// operator's constraints (tree matching, D3.3 §2.1).
func (m *Materialized) MatchesAbstract(a *Abstract) bool {
	return metadata.Matches(a.Meta.Node("Constraints"), m.Meta.Node("Constraints"))
}

// AcceptsInput reports whether the given dataset constraints satisfy the
// operator's input-i requirements.
func (m *Materialized) AcceptsInput(i int, datasetConstraints *metadata.Tree) bool {
	req := m.InputConstraint(i)
	if req == nil {
		return true
	}
	return metadata.Matches(req, datasetConstraints)
}

// Params returns the operator-specific execution parameters declared under
// Optimization.param.* (e.g. Optimization.param.k=8), parsed as floats. The
// map is shared: copy it before writing.
func (m *Materialized) Params() map[string]float64 { return m.params }
