package planner

import "github.com/asap-project/ires/internal/workflow"

// Extraction walks (dataset node, entry) pairs back from the target. A table
// entry names nothing — nodes of one shape share their cached results — so
// every name a plan reports comes from the graph: a derived entry in dataset
// d's row was produced by d's one producer, d.Inputs[0], and its candidate's
// i-th input resolves that operator's i-th input dataset. Steps are
// deduplicated per (operator node, candidate sig): a producer shared by two
// consumers is one step, also when one consumer's cached result reads a
// superseded candidate of equal sig, while two identical jobs on parallel
// branches, which share one candidate, stay two.
//
// A warm plan is a lookup. Extraction from an entry is a function of the
// entry, the target node and the graph's names and edges, so the plan last
// extracted from an entry is kept on it, with the graph identity and target
// position it was extracted for, and a request that would extract the same
// thing gets its steps back without a walk. That is exact because:
//
//   - node keys and candidate sigs digest everything extraction reads from
//     the table (memo.go), so an entry reached again is the same subplan;
//   - every edge extraction follows is part of the key of a node on the
//     walked path — an operator's inputs and outputs, a dataset's one
//     producer — so an edge added there makes new entries, with empty slots;
//   - names are fixed per graph identity (workflow.Graph.ID), and the target
//     position tells apart twin branches, whose datasets share one row and
//     so one entry.
//
// The steps are shared by every plan served from the slot, read-only (see
// Plan). The slot holds no graph: it dies with its entry, by eviction or
// flush.

// stepKey identifies one operator step of the plan being extracted.
type stepKey struct {
	node *workflow.Node
	cand sig
}

// stepRec is one step of the plan being extracted: operator node o run as
// candidate c or, when move >= 0, the move bridging c's input slot move. Its
// inputs are ins[in : in+nIn], and its name ends at names[nameEnd], where the
// next step's starts.
type stepRec struct {
	o                *workflow.Node
	c                *candidate
	move             int
	in, nIn, nameEnd int
}

// stepInput is how one input of an extracted step is satisfied: by the step
// with ID dep or, when dep < 0, by the source dataset src.
type stepInput struct {
	dep int
	src *workflow.Node
}

// extractScratch is extract's working state, guarded by Planner.mu and
// emptied after every extraction: the plan's steps in order, their inputs and
// names, and the step of every (operator node, candidate) pair extracted so
// far.
type extractScratch struct {
	recs  []stepRec
	ins   []stepInput
	names []byte
	seen  map[stepKey]int
}

// extracted is the plan last extracted from an entry: its steps and their
// totals, for the target node at position pos of the graph with identity
// graph.
type extracted struct {
	graph      uint64
	pos        int
	steps      []*Step
	time, cost float64
}

// extract returns the plan of best, an entry of the target dataset node d's
// row in graph g: the entry's slot when it was extracted for d of g, else
// a backtrack from best materializing plan steps (with move steps where
// inputs were bridged), which then fills the slot. Either way the Plan is
// new and its Steps shared. Must be called with p.mu held.
func (p *Planner) extract(g *workflow.Graph, d *workflow.Node, best *tagEntry) *Plan {
	if l := best.last; l != nil && l.graph == g.ID() && l.pos == d.Pos() {
		return &Plan{Target: g.Target, Steps: l.steps, EstTimeSec: l.time, EstCost: l.cost}
	}
	x := &p.xs
	if x.seen == nil {
		x.seen = make(map[stepKey]int)
	}
	x.walk(d, best)
	plan := p.materializeSteps(g.Target)
	clear(x.recs) // the scratch must not keep candidates, or the graph, alive
	clear(x.ins)
	clear(x.seen)
	x.recs, x.ins, x.names = x.recs[:0], x.ins[:0], x.names[:0]

	// The DP totals are a tree relaxation (see the package comment): shared
	// producers were charged once per consuming branch, but extraction
	// deduplicated them. Recompute the reported estimates from the steps
	// actually emitted.
	plan.EstTimeSec, plan.EstCost = plan.StepTotals()
	if best.last == nil {
		best.last = new(extracted)
	}
	*best.last = extracted{g.ID(), d.Pos(), plan.Steps, plan.EstTimeSec, plan.EstCost}
	return plan
}

// walk records the steps producing entry e of dataset d's row, inputs first,
// and returns the ID of the step producing e — or -1 for a leaf, which its
// consumer reads as a source.
func (x *extractScratch) walk(d *workflow.Node, e *tagEntry) int {
	if e.cand == nil {
		return -1
	}
	o, c := d.Inputs[0], e.cand
	if id, ok := x.seen[stepKey{o, c.sig}]; ok {
		return id
	}
	at := len(x.ins)
	for range c.inputs {
		x.ins = append(x.ins, stepInput{})
	}
	for i := range c.inputs {
		src := o.Inputs[i]
		dep := x.walk(src, c.inputs[i].entry)
		if c.inputs[i].moved {
			x.ins = append(x.ins, stepInput{dep, src})
			x.names = append(append(x.names, "move->"...), o.Name...)
			dep = x.add(stepRec{o: o, c: c, move: i, in: len(x.ins) - 1, nIn: 1})
		}
		x.ins[at+i] = stepInput{dep, src}
	}
	x.names = append(append(append(x.names, o.Name...), '/'), c.mo.Name...)
	id := x.add(stepRec{o: o, c: c, move: -1, in: at, nIn: len(c.inputs)})
	x.seen[stepKey{o, c.sig}] = id
	return id
}

// add appends r, whose name was just appended to names, and returns its step
// ID.
func (x *extractScratch) add(r stepRec) int {
	r.nameEnd = len(x.names)
	x.recs = append(x.recs, r)
	return len(x.recs) - 1
}

// materializeSteps builds the plan of the walked steps: one slab of steps,
// one of dependencies, one of source inputs and one string of names, shared
// only with the plans later served from the same slot. Must be called with
// p.mu held.
func (p *Planner) materializeSteps(target string) *Plan {
	x := &p.xs
	var nDeps, nSrcs int
	for _, in := range x.ins {
		if in.dep >= 0 {
			nDeps++
		} else {
			nSrcs++
		}
	}
	names, nameAt := string(x.names), 0
	steps, ptrs := make([]Step, len(x.recs)), make([]*Step, len(x.recs))
	deps, srcs := make([]int, 0, nDeps), make([]string, 0, nSrcs)
	for id, r := range x.recs {
		s, c := &steps[id], r.c
		// Field by field into the zeroed slab: assigning a whole Step literal
		// writes every zero field again, the pointers behind write barriers.
		if r.move >= 0 {
			in := &c.inputs[r.move]
			s.Kind = StepMove
			s.Engine, s.Algorithm = "move", "move"
			s.InRecords, s.InBytes = in.entry.records, in.entry.bytes
			s.OutRecords, s.OutBytes = in.entry.records, in.entry.bytes
			s.EstTimeSec, s.EstCost = in.moveTime, in.moveCost
			s.OutMeta = p.movedMetaLocked(in.entry, c.mo.InputConstraint(r.move))
		} else {
			s.WorkflowNode, s.Op = r.o.Name, c.mo
			s.Engine, s.Algorithm = c.mo.Engine(), c.mo.Algorithm()
			s.Res, s.Params = c.res, c.mo.Params()
			for _, in := range c.inputs {
				s.InRecords += in.entry.records
				s.InBytes += in.entry.bytes
			}
			s.OutRecords, s.OutBytes = c.outRecords, c.outBytes
			s.EstTimeSec, s.EstCost = c.opTime, c.opMoney
			if len(r.o.Outputs) > 0 {
				s.OutDataset = r.o.Outputs[0].Name
				s.OutMeta = c.mo.OutputSpec(0)
			}
		}
		s.ID, s.Name, nameAt = id, names[nameAt:r.nameEnd], r.nameEnd
		d0, s0 := len(deps), len(srcs)
		for _, in := range x.ins[r.in : r.in+r.nIn] {
			if in.dep >= 0 {
				deps = append(deps, in.dep)
			} else {
				srcs = append(srcs, in.src.Name)
			}
		}
		if n := len(deps); n > d0 {
			s.DependsOn = deps[d0:n:n]
		}
		if n := len(srcs); n > s0 {
			s.SourceInputs = srcs[s0:n:n]
		}
		ptrs[id] = s
	}
	return &Plan{Target: target, Steps: ptrs}
}
