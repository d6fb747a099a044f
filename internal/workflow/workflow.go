// Package workflow models analytics workflows as bipartite DAGs of dataset
// and operator nodes, the representation the IReS parser builds from a user
// submission (D3.3 §2.1, §3.3). It also parses the `graph` file format used
// by the paper's abstract-workflow directories:
//
//	asapServerLog,LineCount,0
//	LineCount,d1,0
//	d1,$$target
package workflow

import (
	"fmt"
	"sort"
	"strings"

	"github.com/asap-project/ires/internal/operator"
)

// Kind distinguishes the two node species of the bipartite workflow DAG.
type Kind int

const (
	// DatasetNode is a data vertex: a workflow input, intermediate, or the
	// target output.
	DatasetNode Kind = iota
	// OperatorNode is an abstract operator vertex.
	OperatorNode
)

func (k Kind) String() string {
	switch k {
	case DatasetNode:
		return "dataset"
	case OperatorNode:
		return "operator"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// TargetMarker is the sentinel the graph-file format uses to designate the
// workflow's final output dataset.
const TargetMarker = "$$target"

// Node is a vertex of the workflow DAG. Inputs and Outputs are ordered: the
// i-th input edge of an operator feeds its i-th input slot.
type Node struct {
	Name    string
	Kind    Kind
	Inputs  []*Node
	Outputs []*Node

	// Dataset is set for DatasetNode vertices; for intermediate datasets it
	// carries whatever (possibly empty) description the user supplied.
	Dataset *operator.Dataset
	// Operator is set for OperatorNode vertices.
	Operator *operator.Abstract

	pos int // index in the graph's insertion order
}

// Graph is an abstract workflow: a DAG of alternating dataset and operator
// nodes with a designated target dataset.
type Graph struct {
	nodes  map[string]*Node
	order  []string // insertion order, for deterministic iteration
	Target string
}

// NewGraph returns an empty workflow graph.
func NewGraph() *Graph {
	return &Graph{nodes: make(map[string]*Node)}
}

// AddDataset adds a dataset node. A nil dataset gets an empty description.
func (g *Graph) AddDataset(name string, d *operator.Dataset) (*Node, error) {
	if d == nil {
		d = operator.NewDataset(name, nil)
	}
	return g.addNode(&Node{Name: name, Kind: DatasetNode, Dataset: d})
}

// AddOperator adds an abstract operator node.
func (g *Graph) AddOperator(name string, a *operator.Abstract) (*Node, error) {
	if a == nil {
		return nil, fmt.Errorf("workflow: operator node %s requires an abstract operator", name)
	}
	return g.addNode(&Node{Name: name, Kind: OperatorNode, Operator: a})
}

func (g *Graph) addNode(n *Node) (*Node, error) {
	if n.Name == "" {
		return nil, fmt.Errorf("workflow: empty node name")
	}
	if _, ok := g.nodes[n.Name]; ok {
		return nil, fmt.Errorf("workflow: duplicate node %q", n.Name)
	}
	g.nodes[n.Name] = n
	n.pos = len(g.order)
	g.order = append(g.order, n.Name)
	return n, nil
}

// Connect adds an edge from -> to. Edges must alternate between dataset and
// operator nodes.
func (g *Graph) Connect(from, to string) error {
	f, ok := g.nodes[from]
	if !ok {
		return fmt.Errorf("workflow: unknown node %q", from)
	}
	t, ok := g.nodes[to]
	if !ok {
		return fmt.Errorf("workflow: unknown node %q", to)
	}
	if f.Kind == t.Kind {
		return fmt.Errorf("workflow: edge %s->%s connects two %s nodes; the graph is bipartite", from, to, f.Kind)
	}
	f.Outputs = append(f.Outputs, t)
	t.Inputs = append(t.Inputs, f)
	return nil
}

// SetTarget designates the workflow's output dataset.
func (g *Graph) SetTarget(name string) error {
	n, ok := g.nodes[name]
	if !ok {
		return fmt.Errorf("workflow: unknown target %q", name)
	}
	if n.Kind != DatasetNode {
		return fmt.Errorf("workflow: target %q is not a dataset", name)
	}
	g.Target = name
	return nil
}

// Node returns a node by name.
func (g *Graph) Node(name string) (*Node, bool) {
	n, ok := g.nodes[name]
	return n, ok
}

// Len reports the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Datasets returns the dataset nodes in insertion order.
func (g *Graph) Datasets() []*Node { return g.byKind(DatasetNode) }

// Operators returns the operator nodes in insertion order.
func (g *Graph) Operators() []*Node { return g.byKind(OperatorNode) }

func (g *Graph) byKind(k Kind) []*Node {
	var out []*Node
	for _, name := range g.order {
		if n := g.nodes[name]; n.Kind == k {
			out = append(out, n)
		}
	}
	return out
}

// Sources returns the dataset nodes with no producers (workflow inputs).
func (g *Graph) Sources() []*Node {
	var out []*Node
	for _, name := range g.order {
		n := g.nodes[name]
		if n.Kind == DatasetNode && len(n.Inputs) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// Topological returns all nodes in a topological order (stable with respect
// to insertion order), or an error when the graph has a cycle.
func (g *Graph) Topological() ([]*Node, error) {
	// Kahn's algorithm with a deterministic frontier: out is its own queue,
	// out[head:] the nodes ready but not yet expanded.
	indeg := make([]int, len(g.order))
	out := make([]*Node, 0, len(g.order))
	for i, name := range g.order {
		n := g.nodes[name]
		if indeg[i] = len(n.Inputs); indeg[i] == 0 {
			out = append(out, n)
		}
	}
	for head := 0; head < len(out); head++ {
		for _, succ := range out[head].Outputs {
			if indeg[succ.pos]--; indeg[succ.pos] == 0 {
				out = append(out, succ)
			}
		}
	}
	if len(out) != len(g.nodes) {
		return nil, fmt.Errorf("workflow: graph contains a cycle")
	}
	return out, nil
}

// OperatorsTopological returns only the operator nodes, topologically
// ordered.
func (g *Graph) OperatorsTopological() ([]*Node, error) {
	all, err := g.Topological()
	if err != nil {
		return nil, err
	}
	var out []*Node
	for _, n := range all {
		if n.Kind == OperatorNode {
			out = append(out, n)
		}
	}
	return out, nil
}

// Validate checks structural well-formedness: a designated dataset target,
// acyclicity, bipartite alternation (enforced on Connect, re-checked here),
// every operator with at least one input and one output, and every source
// dataset materialized.
func (g *Graph) Validate() error {
	_, err := g.ValidatedOrder()
	return err
}

// ValidatedOrder is Validate for callers that go on to walk the graph: it
// returns the topological order the acyclicity check computed.
func (g *Graph) ValidatedOrder() ([]*Node, error) {
	if g.Target == "" {
		return nil, fmt.Errorf("workflow: no target dataset designated")
	}
	if _, ok := g.nodes[g.Target]; !ok {
		return nil, fmt.Errorf("workflow: target %q not in graph", g.Target)
	}
	order, err := g.Topological()
	if err != nil {
		return nil, err
	}
	for _, name := range g.order {
		n := g.nodes[name]
		switch n.Kind {
		case OperatorNode:
			if len(n.Inputs) == 0 {
				return nil, fmt.Errorf("workflow: operator %s has no inputs", n.Name)
			}
			if len(n.Outputs) == 0 {
				return nil, fmt.Errorf("workflow: operator %s has no outputs", n.Name)
			}
		case DatasetNode:
			if len(n.Inputs) == 0 && !n.Dataset.IsMaterialized() {
				return nil, fmt.Errorf("workflow: source dataset %s is not materialized (missing %s)", n.Name, operator.PathExecutionPath)
			}
			if len(n.Inputs) > 1 {
				return nil, fmt.Errorf("workflow: dataset %s has %d producers; at most one allowed", n.Name, len(n.Inputs))
			}
		}
	}
	return order, nil
}

// DOT renders the workflow in Graphviz format (datasets as ellipses,
// operators as boxes), handy for debugging and documentation.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph workflow {\n")
	names := make([]string, len(g.order))
	copy(names, g.order)
	sort.Strings(names)
	for _, name := range names {
		n := g.nodes[name]
		shape := "ellipse"
		if n.Kind == OperatorNode {
			shape = "box"
		}
		extra := ""
		if name == g.Target {
			extra = ", peripheries=2"
		}
		fmt.Fprintf(&b, "  %q [shape=%s%s];\n", name, shape, extra)
	}
	for _, name := range names {
		n := g.nodes[name]
		for _, out := range n.Outputs {
			fmt.Fprintf(&b, "  %q -> %q;\n", n.Name, out.Name)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
