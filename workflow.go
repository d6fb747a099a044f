package ires

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/workflow"
)

func parseMeta(description string) (*metadata.Tree, error) {
	return metadata.ParseString(description)
}

// WorkflowBuilder assembles abstract workflows fluently. Errors accumulate
// and surface at Build.
type WorkflowBuilder struct {
	p   *Platform
	g   *Workflow
	err error
}

// NewWorkflow starts a workflow definition.
func (p *Platform) NewWorkflow() *WorkflowBuilder {
	return &WorkflowBuilder{p: p, g: workflow.NewGraph()}
}

func (b *WorkflowBuilder) fail(err error) *WorkflowBuilder {
	if b.err == nil && err != nil {
		b.err = err
	}
	return b
}

// Dataset adds a dataset node. When the name matches a library dataset the
// registered description is used; otherwise the node is an abstract
// intermediate.
func (b *WorkflowBuilder) Dataset(name string) *WorkflowBuilder {
	if b.err != nil {
		return b
	}
	d, _ := b.p.Library.Dataset(name)
	_, err := b.g.AddDataset(name, d)
	return b.fail(err)
}

// DatasetWithMeta adds a dataset node with an inline description.
func (b *WorkflowBuilder) DatasetWithMeta(name, description string) *WorkflowBuilder {
	if b.err != nil {
		return b
	}
	meta, err := parseMeta(description)
	if err != nil {
		return b.fail(err)
	}
	_, err = b.g.AddDataset(name, operator.NewDataset(name, meta))
	return b.fail(err)
}

// Operator adds an abstract operator node described inline (typically just
// the algorithm constraint).
func (b *WorkflowBuilder) Operator(name, description string) *WorkflowBuilder {
	if b.err != nil {
		return b
	}
	meta, err := parseMeta(description)
	if err != nil {
		return b.fail(err)
	}
	_, err = b.g.AddOperator(name, operator.NewAbstract(name, meta))
	return b.fail(err)
}

// Connect adds a dataflow edge.
func (b *WorkflowBuilder) Connect(from, to string) *WorkflowBuilder {
	if b.err != nil {
		return b
	}
	return b.fail(b.g.Connect(from, to))
}

// Chain connects a linear sequence of nodes.
func (b *WorkflowBuilder) Chain(names ...string) *WorkflowBuilder {
	for i := 1; i < len(names); i++ {
		b.Connect(names[i-1], names[i])
	}
	return b
}

// Target designates the output dataset.
func (b *WorkflowBuilder) Target(name string) *WorkflowBuilder {
	if b.err != nil {
		return b
	}
	return b.fail(b.g.SetTarget(name))
}

// Build validates and returns the workflow.
func (b *WorkflowBuilder) Build() (*Workflow, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// ParseWorkflow parses the paper's `graph` file format (D3.3 §3.3) against
// the platform's registered datasets and abstract operators.
func (p *Platform) ParseWorkflow(graph string) (*Workflow, error) {
	res := workflow.LibraryResolver{Library: p.Library}
	g, err := workflow.ParseGraphString(graph, res)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// LoadLibraryDir loads an asapLibrary-style directory tree (D3.3 §3):
//
//	<dir>/datasets/<name>                 dataset descriptions
//	<dir>/operators/<name>/description    materialized operators
//	<dir>/operators/<name>                (flat file alternative)
//	<dir>/abstractOperators/<name>        abstract operators
//	<dir>/abstractWorkflows/<name>/graph  workflow graphs
//
// It returns the named workflows found.
func (p *Platform) LoadLibraryDir(dir string) (map[string]*Workflow, error) {
	readDir := func(sub string) ([]os.DirEntry, error) {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if os.IsNotExist(err) {
			return nil, nil
		}
		return entries, err
	}

	entries, err := readDir("datasets")
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, "datasets", e.Name()))
		if err != nil {
			return nil, err
		}
		if err := p.RegisterDataset(e.Name(), string(data)); err != nil {
			return nil, err
		}
	}

	entries, err = readDir("operators")
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		path := filepath.Join(dir, "operators", e.Name())
		if e.IsDir() {
			path = filepath.Join(path, "description")
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("ires: operator %s: %w", e.Name(), err)
		}
		if err := p.RegisterOperator(e.Name(), string(data)); err != nil {
			return nil, err
		}
	}

	entries, err = readDir("abstractOperators")
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, "abstractOperators", e.Name()))
		if err != nil {
			return nil, err
		}
		if err := p.RegisterAbstractOperator(e.Name(), string(data)); err != nil {
			return nil, err
		}
	}

	workflows := make(map[string]*Workflow)
	entries, err = readDir("abstractWorkflows")
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, "abstractWorkflows", e.Name(), "graph"))
		if err != nil {
			return nil, fmt.Errorf("ires: workflow %s: %w", e.Name(), err)
		}
		g, err := p.ParseWorkflow(string(data))
		if err != nil {
			return nil, fmt.Errorf("ires: workflow %s: %w", e.Name(), err)
		}
		workflows[e.Name()] = g
	}
	return workflows, nil
}
