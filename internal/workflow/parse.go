package workflow

import (
	"fmt"
	"strings"

	"github.com/asap-project/ires/internal/operator"
)

// Resolver supplies node descriptions while parsing a graph file. The
// operator library implements it; tests can supply stubs.
type Resolver interface {
	// ResolveDataset returns the description of a named dataset, or nil when
	// unknown (the node becomes an abstract intermediate dataset).
	ResolveDataset(name string) *operator.Dataset
	// ResolveOperator returns the abstract operator description for a named
	// operator node, or nil when unknown.
	ResolveOperator(name string) *operator.Abstract
}

// LibraryResolver adapts an operator.Library, with its datasets and
// abstract operators, to the Resolver interface.
type LibraryResolver struct {
	Library *operator.Library
}

// ResolveDataset implements Resolver using the library's dataset registry.
func (r LibraryResolver) ResolveDataset(name string) *operator.Dataset {
	if r.Library == nil {
		return nil
	}
	d, _ := r.Library.Dataset(name)
	return d
}

// ResolveOperator implements Resolver using the library's abstract
// operator registry.
func (r LibraryResolver) ResolveOperator(name string) *operator.Abstract {
	if r.Library == nil {
		return nil
	}
	a, _ := r.Library.Abstract(name)
	return a
}

// ParseGraphString parses the `graph` file format of D3.3 §3.3. Each line
// is either an edge "from,to[,port]" or the target designation
// "dataset,$$target". Node kinds are inferred: a name resolving to an
// abstract operator becomes an operator node; anything else becomes a
// dataset node (materialized when the resolver knows it, abstract
// otherwise). Lines are sliced out of s in place, so no line is too long.
func ParseGraphString(s string, res Resolver) (*Graph, error) {
	g := NewGraph()
	ensure := func(name string) (*Node, error) {
		if n, ok := g.Node(name); ok {
			return n, nil
		}
		if res != nil {
			if a := res.ResolveOperator(name); a != nil {
				return g.AddOperator(name, a)
			}
			if d := res.ResolveDataset(name); d != nil {
				return g.AddDataset(name, d)
			}
		}
		return g.AddDataset(name, nil)
	}

	for lineNo := 1; s != ""; lineNo++ {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		switch {
		case len(parts) >= 2 && parts[1] == TargetMarker:
			if _, err := ensure(parts[0]); err != nil {
				return nil, fmt.Errorf("workflow: line %d: %w", lineNo, err)
			}
			if err := g.SetTarget(parts[0]); err != nil {
				return nil, fmt.Errorf("workflow: line %d: %w", lineNo, err)
			}
		case len(parts) == 2 || len(parts) == 3:
			// Third field is the port/ordinal; edge order already encodes it.
			if _, err := ensure(parts[0]); err != nil {
				return nil, fmt.Errorf("workflow: line %d: %w", lineNo, err)
			}
			if _, err := ensure(parts[1]); err != nil {
				return nil, fmt.Errorf("workflow: line %d: %w", lineNo, err)
			}
			if err := g.Connect(parts[0], parts[1]); err != nil {
				return nil, fmt.Errorf("workflow: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("workflow: line %d: malformed %q", lineNo, line)
		}
	}
	return g, nil
}
