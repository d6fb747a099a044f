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
	"slices"
	"strings"
	"sync/atomic"

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
// i-th input edge of an operator feeds its i-th input slot. Node fields are
// written only by Graph methods: the exported ones are for reading, and a
// direct write (a rename, a rewired edge) is unsupported — the graph's name
// index and the planner's caches would not see it.
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

	pos int // index in Graph.nodes
}

// Pos returns the node's position in its graph, in insertion order: the
// nodes of a graph hold the positions 0 .. Len()-1.
func (n *Node) Pos() int { return n.pos }

// Graph is an abstract workflow: a DAG of alternating dataset and operator
// nodes with a designated target dataset. Its nodes are changed only through
// its methods (see Node).
type Graph struct {
	id     uint64
	ver    uint64  // structure version (Version)
	nodes  []*Node // insertion order, for deterministic iteration
	byName map[string]*Node
	Target string

	// checked is what ValidatedOrder derived at one structure version.
	// Concurrent plans of one graph share it, so it is swapped whole.
	checked atomic.Pointer[checkedOrder]
}

// checkedOrder is a structurally valid graph's topological order and its
// source datasets, at structure version ver.
type checkedOrder struct {
	ver     uint64
	order   []*Node
	sources []*Node
}

// graphIDs issues graph identities (Graph.ID).
var graphIDs atomic.Uint64

// NewGraph returns an empty workflow graph with a new identity.
func NewGraph() *Graph {
	return &Graph{id: graphIDs.Add(1), byName: make(map[string]*Node)}
}

// ID returns the graph's identity: unique among the graphs NewGraph made in
// this process and never reused, also after the graph is collected. A node's
// name is fixed for its graph's lifetime, so (ID, node position) names one
// node of one graph for good — without holding the graph.
func (g *Graph) ID() uint64 { return g.id }

// Version returns the graph's structure version. Every node, edge and target
// its methods add or set moves it; dataset descriptions, which stay mutable,
// do not.
func (g *Graph) Version() uint64 { return g.ver }

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
	if _, ok := g.byName[n.Name]; ok {
		return nil, fmt.Errorf("workflow: duplicate node %q", n.Name)
	}
	g.byName[n.Name] = n
	n.pos = len(g.nodes)
	g.nodes = append(g.nodes, n)
	g.ver++
	return n, nil
}

// Connect adds an edge from -> to. Edges must alternate between dataset and
// operator nodes.
func (g *Graph) Connect(from, to string) error {
	f, ok := g.byName[from]
	if !ok {
		return fmt.Errorf("workflow: unknown node %q", from)
	}
	t, ok := g.byName[to]
	if !ok {
		return fmt.Errorf("workflow: unknown node %q", to)
	}
	if f.Kind == t.Kind {
		return fmt.Errorf("workflow: edge %s->%s connects two %s nodes; the graph is bipartite", from, to, f.Kind)
	}
	f.Outputs = append(f.Outputs, t)
	t.Inputs = append(t.Inputs, f)
	g.ver++
	return nil
}

// SetTarget designates the workflow's output dataset.
func (g *Graph) SetTarget(name string) error {
	n, ok := g.byName[name]
	if !ok {
		return fmt.Errorf("workflow: unknown target %q", name)
	}
	if n.Kind != DatasetNode {
		return fmt.Errorf("workflow: target %q is not a dataset", name)
	}
	g.Target = name
	g.ver++
	return nil
}

// Node returns a node by name.
func (g *Graph) Node(name string) (*Node, bool) {
	n, ok := g.byName[name]
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
	for _, n := range g.nodes {
		if n.Kind == k {
			out = append(out, n)
		}
	}
	return out
}

// Sources returns the dataset nodes with no producers (workflow inputs).
func (g *Graph) Sources() []*Node {
	var out []*Node
	for _, n := range g.nodes {
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
	indeg := make([]int, len(g.nodes))
	out := make([]*Node, 0, len(g.nodes))
	for i, n := range g.nodes {
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
// returns the topological order the acyclicity check computed. The order and
// the structural checks are kept per structure version (Version), so a graph
// planned again is not sorted again; the target and the materialization of
// every source dataset are checked on every call. The order is shared by
// every call at one version and read-only.
func (g *Graph) ValidatedOrder() ([]*Node, error) {
	if g.Target == "" {
		return nil, fmt.Errorf("workflow: no target dataset designated")
	}
	if _, ok := g.byName[g.Target]; !ok {
		return nil, fmt.Errorf("workflow: target %q not in graph", g.Target)
	}
	c := g.checked.Load()
	if c == nil || c.ver != g.ver {
		var err error
		if c, err = g.check(); err != nil {
			return nil, err
		}
		g.checked.Store(c)
		return c.order, nil
	}
	for _, n := range c.sources {
		if !n.Dataset.IsMaterialized() {
			return nil, unmaterialized(n)
		}
	}
	return c.order, nil
}

// check runs every check of ValidatedOrder but the target's, reporting the
// first failing node in insertion order.
func (g *Graph) check() (*checkedOrder, error) {
	order, err := g.Topological()
	if err != nil {
		return nil, err
	}
	c := &checkedOrder{ver: g.ver, order: order}
	for _, n := range g.nodes {
		switch n.Kind {
		case OperatorNode:
			if len(n.Inputs) == 0 {
				return nil, fmt.Errorf("workflow: operator %s has no inputs", n.Name)
			}
			if len(n.Outputs) == 0 {
				return nil, fmt.Errorf("workflow: operator %s has no outputs", n.Name)
			}
		case DatasetNode:
			if len(n.Inputs) == 0 {
				if !n.Dataset.IsMaterialized() {
					return nil, unmaterialized(n)
				}
				c.sources = append(c.sources, n)
			}
			if len(n.Inputs) > 1 {
				return nil, fmt.Errorf("workflow: dataset %s has %d producers; at most one allowed", n.Name, len(n.Inputs))
			}
		}
	}
	return c, nil
}

func unmaterialized(n *Node) error {
	return fmt.Errorf("workflow: source dataset %s is not materialized (missing %s)", n.Name, operator.PathExecutionPath)
}

// DOT renders the workflow in Graphviz format (datasets as ellipses,
// operators as boxes), handy for debugging and documentation.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph workflow {\n")
	nodes := slices.Clone(g.nodes)
	slices.SortFunc(nodes, func(a, b *Node) int { return strings.Compare(a.Name, b.Name) })
	for _, n := range nodes {
		shape := "ellipse"
		if n.Kind == OperatorNode {
			shape = "box"
		}
		extra := ""
		if n.Name == g.Target {
			extra = ", peripheries=2"
		}
		fmt.Fprintf(&b, "  %q [shape=%s%s];\n", n.Name, shape, extra)
	}
	for _, n := range nodes {
		for _, out := range n.Outputs {
			fmt.Fprintf(&b, "  %q -> %q;\n", n.Name, out.Name)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
