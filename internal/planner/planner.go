// Package planner implements the IReS multi-engine workflow planner
// (D3.3 §2.2.3, Algorithm 1): a dynamic program over the abstract workflow's
// topological order that, for every intermediate dataset, keeps the cheapest
// plan per distinct dataset tag (location/format), inserting move/transform
// operators between engines where input/output specifications disagree.
//
// Worst-case complexity is O(op * m^2 * k) for op abstract operators, m
// materialized matches per operator and k inputs per operator, as derived in
// the paper.
//
// # Tree relaxation
//
// The dynamic program accumulates path costs bottom-up as if every plan were
// a tree: a tagEntry's cost sums the full cost of each input's producing
// subplan. When a workflow is a DAG with sharing — a diamond where one
// upstream operator feeds two downstream branches that re-merge — the shared
// producer is counted once per consuming branch during the DP, a standard
// relaxation that keeps the table per-dataset instead of per-subplan-set.
// Extraction, however, deduplicates shared producers (one plan step per
// candidate), so the emitted plan is cheaper than the DP value suggests. The
// reported Plan.EstTimeSec/EstCost/EstObjective are therefore recomputed
// from the deduplicated steps after extraction: cost as the sum over unique
// steps, time as the critical path over step dependencies. Only step
// *selection* retains the tree relaxation.
package planner

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/workflow"
)

// ErrNoPlan indicates no feasible materialized execution plan exists (no
// matching operators, all engines down, or every configuration infeasible).
var ErrNoPlan = errors.New("planner: no feasible execution plan")

// Estimator supplies an operator's estimates for one configuration, all of
// them in one call. Estimates must not retain feats: the planner refills one
// map.
type Estimator interface {
	Estimates(opName string, feats map[string]float64) Estimates
}

// Estimates are an operator's estimated execution time, monetary cost and
// output size at one configuration. A candidate needs both verdicts; an
// output size that is not positive keeps the input's.
type Estimates struct {
	ExecTime, Cost, OutRecords, OutBytes float64
	ExecTimeOK, CostOK                   bool
}

// Objective folds a (time, monetary cost) estimate into the scalar the DP
// minimises — the user-defined optimization policy.
type Objective func(timeSec, cost float64) float64

// MinTime is the execution-time-minimising policy.
func MinTime(timeSec, _ float64) float64 { return timeSec }

// MinCost is the monetary-cost-minimising policy.
func MinCost(_, cost float64) float64 { return cost }

// Weighted returns a policy blending time and cost.
func Weighted(wTime, wCost float64) Objective {
	return func(t, c float64) float64 { return wTime*t + wCost*c }
}

// Resources mirrors engine.Resources without importing it (the planner is
// engine-agnostic); the executor converts.
type Resources struct {
	Nodes     int
	CoresPerN int
	MemMBPerN int
}

// Config parameterises a Planner.
type Config struct {
	Library   *operator.Library
	Estimator Estimator
	// MoveSeconds estimates the duration of moving n bytes between engines;
	// nil uses a 100MB/s + 1.5s default.
	MoveSeconds func(bytes int64) float64
	// Objective is the optimization policy (default MinTime).
	Objective Objective
	// EngineAvailable filters engines during planning; nil admits all. It is
	// probed once per library engine at each build boundary, and the
	// availability of a node's engines is part of its memo key, so an engine
	// that flips needs no event: its nodes miss in the new state and hit
	// again when it flips back.
	EngineAvailable func(name string) bool
	// Resources chooses the provisioned resources for a materialized
	// operator at a given input scale (the elastic-provisioning hook);
	// nil uses 16x(2c,3456MB).
	Resources func(mo *operator.Materialized, records, bytes int64) Resources
	// Tracer receives plan.start/plan.finish events with DP statistics;
	// nil discards them.
	Tracer trace.Tracer
	// Now supplies the virtual time stamped on trace events; nil stamps 0
	// (the planner itself never consumes time on the virtual clock).
	Now func() time.Duration
	// Epoch supplies an infrastructure-change counter: any movement forces a
	// wholesale cache flush at the next build boundary (the platform wires
	// its infrastructure generation here); nil reads as 0. A profiler
	// retrain should instead use ProfilerRetrain, which evicts only the
	// dependent cache entries; library changes and availability need
	// neither, being part of every node's key. See invalidate.go.
	Epoch func() uint64
}

// Planner computes optimal materialized plans for abstract workflows.
// Table builds are serialized on mu, which also guards the memo cache; one
// build runs on the calling goroutine alone (a candidate evaluation costs a
// few microseconds, about what handing it to another goroutine would).
type Planner struct {
	cfg Config

	mu    sync.Mutex
	cache planCache
	// Scratch buffers of the running build, guarded by mu. dp is the table
	// being built, emptied again when its request returns. readSigs is filled
	// by nodeKey with the entry signatures it reads; buildTable copies it into
	// the footprint of a freshly evaluated node. feats is the feature map
	// handed to the Estimator, vecs the vectors of the front being pruned,
	// evict the stack of node keys an invalidation is evicting; options,
	// optionVec and next are paretoCandidates' per-slot working lists, order
	// and dropped prune's.
	dp              table
	readSigs        []sig
	feats           map[string]float64
	vecs            []pVec
	evict           []sig
	options         []inputChoice
	optionVec, next []pVec
	order           []int
	dropped         []bool

	// pendMu guards pend, the operators retrained since the last build. It
	// is a leaf mutex: profiler retrains enqueue without contending with a
	// running build.
	pendMu sync.Mutex
	pend   map[string]struct{}
}

// New builds a planner, filling Config defaults.
func New(cfg Config) (*Planner, error) {
	if cfg.Library == nil {
		return nil, fmt.Errorf("planner: Config.Library is required")
	}
	if cfg.Estimator == nil {
		return nil, fmt.Errorf("planner: Config.Estimator is required")
	}
	if cfg.MoveSeconds == nil {
		cfg.MoveSeconds = func(bytes int64) float64 {
			if bytes < 0 {
				bytes = 0
			}
			return 1.5 + float64(bytes)/100e6
		}
	}
	if cfg.Objective == nil {
		cfg.Objective = MinTime
	}
	if cfg.Resources == nil {
		cfg.Resources = func(*operator.Materialized, int64, int64) Resources {
			return Resources{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456}
		}
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.Nop()
	}
	if cfg.Now == nil {
		cfg.Now = func() time.Duration { return 0 }
	}
	return &Planner{cfg: cfg, dp: make(table), feats: make(map[string]float64)}, nil
}

// emit stamps the current virtual time on ev and hands it to the tracer.
func (p *Planner) emit(ev trace.Event) {
	p.cfg.Tracer.Emit(ev.At(p.cfg.Now()))
}

// dpStats aggregates what one buildTable pass did, for plan.finish events.
// cacheHits/cacheMisses feed CacheStats (which /metrics reads) only —
// never trace-event fields, which must stay byte-identical warm vs cold.
type dpStats struct {
	candidatesTried int // (operator, materialization) pairs attempted
	candidatesKept  int // feasible candidates inserted into the table
	movesConsidered int // input slots bridged with a move/transform
	entriesKept     int // tagEntry inserts that created or improved a slot
	prunedFronts    int // Pareto: dominated/thinned entries dropped from tag fronts
	cacheHits       int // operator nodes served from the memo cache
	cacheMisses     int // operator nodes evaluated cold
}

func (s *dpStats) fields(pl *Plan) map[string]float64 {
	f := map[string]float64{
		"candidatesTried": float64(s.candidatesTried),
		"candidatesKept":  float64(s.candidatesKept),
		"movesConsidered": float64(s.movesConsidered),
		"entriesKept":     float64(s.entriesKept),
	}
	if pl != nil {
		f["steps"] = float64(len(pl.Steps))
		f["estTimeSec"] = pl.EstTimeSec
		f["estCost"] = pl.EstCost
	}
	return f
}

// tagEntry is one dpTable record: a way to produce a dataset in a specific
// tag (location/format) — the cheapest known in the scalar table, one of a
// front of mutually non-dominated (time, money) ways in the Pareto table,
// which leaves cost unused. Entries are immutable once built.
type tagEntry struct {
	// meta is the dataset constraints tree (Engine/FS/type ...) and metaKey
	// its canonical rendering, the tag key. Derived entries share their
	// operator's output tag (operator.Tag); neither is ever written.
	meta    *metadata.Tree
	metaKey string
	records int64
	bytes   int64

	cost  float64 // objective value accumulated along the path
	time  float64 // accumulated estimated seconds
	money float64 // accumulated estimated monetary cost

	// cand is the producing candidate for derived entries; leaves (source
	// datasets, replan seeds) have none and are named by their dataset node.
	cand *candidate
	// outIndex selects which output of the candidate this entry is.
	outIndex int
	// sig is the structural digest of the producing subplan (memo.go).
	sig sig
}

// table is the dpTable: per dataset node, its entries sorted by tag key. A
// scalar row holds one entry per key; a Pareto row holds each key's front as
// a run of adjacent entries, in front order.
type table map[*workflow.Node][]*tagEntry

// insertMin merges e into a scalar row — the cheapest entry per tag key
// stays, the earlier one on ties — and reports whether e was kept.
func insertMin(row []*tagEntry, e *tagEntry) ([]*tagEntry, bool) {
	i := 0
	for i < len(row) && row[i].metaKey < e.metaKey {
		i++
	}
	if i < len(row) && row[i].metaKey == e.metaKey {
		if e.cost < row[i].cost {
			row[i] = e
			return row, true
		}
		return row, false
	}
	return slices.Insert(row, i, e), true
}

// inputChoice records how one input slot of a candidate is satisfied.
type inputChoice struct {
	entry    *tagEntry
	moved    bool
	moveTime float64
	moveCost float64
}

// candidate is one materialized operator choice with resolved inputs.
type candidate struct {
	node    *workflow.Node
	mo      *operator.Materialized
	res     Resources
	inputs  []inputChoice
	opTime  float64
	opMoney float64

	outRecords, outBytes int64
}

// Plan is a materialized execution plan: steps in dependency order.
type Plan struct {
	Steps []*Step
	// EstObjective is the DP value of the plan under the policy.
	EstObjective float64
	// EstTimeSec and EstCost are the accumulated estimates.
	EstTimeSec float64
	EstCost    float64
	// PlanningTime is the wall-clock time the planner spent.
	PlanningTime time.Duration
	// Target names the workflow's target dataset.
	Target string
}

// StepKind distinguishes operator steps from planner-inserted moves.
type StepKind int

const (
	// StepOperator runs a materialized operator.
	StepOperator StepKind = iota
	// StepMove transfers/transforms an intermediate dataset between
	// engines.
	StepMove
)

func (k StepKind) String() string {
	if k == StepMove {
		return "move"
	}
	return "operator"
}

// Step is one unit of a materialized plan.
type Step struct {
	// ID is the step's index in Plan.Steps. Steps are stored in dependency
	// order, so every DependsOn entry is a smaller index; the executor
	// indexes its per-step state by ID and rejects a plan that breaks this.
	ID   int
	Kind StepKind
	Name string

	// Operator step fields.
	WorkflowNode string // abstract operator node name
	Op           *operator.Materialized
	Engine       string
	Algorithm    string
	Res          Resources
	Params       map[string]float64
	// OutDataset is the workflow dataset node this step produces (operator
	// steps only; the first output is reported).
	OutDataset string

	// DependsOn lists the IDs of the steps that must complete first, each
	// smaller than ID.
	DependsOn []int
	// SourceInputs lists workflow source datasets consumed directly.
	SourceInputs []string

	InRecords, InBytes   int64
	OutRecords, OutBytes int64
	EstTimeSec           float64
	EstCost              float64
	// OutMeta is the tag of the produced dataset. Like Params it is shared
	// with the operator (or, for moves, with other plans) and read-only:
	// clone before changing it.
	OutMeta *metadata.Tree
}

func (s *Step) String() string {
	if s.Kind == StepMove {
		return fmt.Sprintf("[%d] move %s (%.1fs)", s.ID, s.Name, s.EstTimeSec)
	}
	return fmt.Sprintf("[%d] %s on %s (%.1fs)", s.ID, s.Name, s.Engine, s.EstTimeSec)
}

// Plan runs Algorithm 1 on the abstract workflow and returns the optimal
// materialized plan under the configured policy.
func (p *Planner) Plan(g *workflow.Graph) (*Plan, error) {
	return p.plan(g, nil, false)
}

// plan is Plan and Replan: done (non-nil for a replan, possibly empty) seeds
// the table with already-materialized intermediates.
func (p *Planner) plan(g *workflow.Graph, done []MaterializedIntermediate, replan bool) (*Plan, error) {
	started := time.Now()
	order, err := g.ValidatedOrder()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureCacheValidLocked()
	start := map[string]float64{"nodes": float64(g.Len())}
	if replan {
		start["replan"], start["seeded"] = 1, float64(len(done))
	}
	p.emit(trace.Event{Type: trace.EvPlanStart, Fields: start})
	var seed map[string]*tagEntry
	if replan {
		// The seed entry map is memoized per done-set (memo.go): replanning
		// with the same surviving intermediates reuses the previous rows.
		if seed, err = p.seedForLocked(g, done); err != nil {
			return nil, err
		}
	}
	dp, stats := p.buildTable(order, seed, false)
	defer clear(dp)
	p.recordBuildLocked(stats)
	targetNode, _ := g.Node(g.Target)
	var best *tagEntry
	for _, e := range dp[targetNode] {
		if best == nil || e.cost < best.cost {
			best = e
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: target %s unreachable", ErrNoPlan, g.Target)
	}
	plan := p.extract(g, best)
	plan.EstObjective = p.cfg.Objective(plan.EstTimeSec, plan.EstCost)
	plan.PlanningTime = time.Since(started)
	f := stats.fields(plan)
	if replan {
		f["replan"] = 1
	}
	p.emit(trace.Event{Type: trace.EvPlanFinish, Fields: f})
	return plan, nil
}

// buildTable fills the dpTable — scalar, or Pareto fronts — over the graph's
// validated topological order. seed pre-populates dataset entries (used by
// replanning to inject already-materialized intermediates). Must be called
// with p.mu held: it reads and populates the memo cache, and the table it
// returns is the planner's one scratch table, valid until the next build.
func (p *Planner) buildTable(order []*workflow.Node, seed map[string]*tagEntry, pareto bool) (table, *dpStats) {
	stats := &dpStats{}
	dp := p.dp
	clear(dp)
	insert := func(n *workflow.Node, e *tagEntry) {
		if pareto {
			var dropped int
			dp[n], dropped = p.insertFront(dp[n], e)
			stats.prunedFronts += dropped
		} else if row, kept := insertMin(dp[n], e); kept {
			dp[n] = row
			stats.entriesKept++
		}
	}

	// Initialise dpTable with materialized datasets (line 5-10 of Alg. 1).
	for _, d := range order {
		if d.Kind != workflow.DatasetNode {
			continue
		}
		if se, ok := seed[d.Name]; ok {
			insert(d, se)
		} else if d.Dataset.IsMaterialized() {
			insert(d, p.leafEntryLocked(d, pareto))
		}
	}

	for _, o := range order {
		if o.Kind != workflow.OperatorNode {
			continue
		}
		p.readSigs = p.readSigs[:0]
		ms := p.matchSetLocked(o.Operator)
		key := p.nodeKey(o, ms, dp, pareto)
		res, ok := p.cache.nodes[key]
		if ok {
			stats.cacheHits++
		} else {
			stats.cacheMisses++
			res = p.evalNode(o, ms, dp, pareto)
			res.foot.inSigs = slices.Clone(p.readSigs)
			p.cache.nodes[key] = res
			for _, s := range res.foot.inSigs {
				p.cache.dependents[s] = append(p.cache.dependents[s], key)
			}
		}
		// Replaying the recorded inserts through the normal merge reproduces
		// the cold table exactly, entriesKept and prunedFronts included (the
		// key covers the outputs' pre-insert state).
		stats.candidatesTried += res.tried
		stats.candidatesKept += res.kept
		stats.movesConsidered += res.moves
		for _, rec := range res.inserts {
			insert(o.Outputs[rec.out], rec.e)
		}
	}
	return dp, stats
}

// evalNode evaluates every materialization of one operator node whose
// engine the build's availability snapshot admits, cold, strictly in library
// (name) order, so the recorded insert sequence — and therefore every
// downstream plan and trace byte — is deterministic. It fills the result's
// dependency footprint but for inSigs, left to the caller.
func (p *Planner) evalNode(o *workflow.Node, ms *matchSet, dp table, pareto bool) *nodeResult {
	all := ms.matches
	res := &nodeResult{
		inserts: make([]insertRec, 0, len(all)*len(o.Outputs)),
		foot:    footprint{estOps: make([]string, 0, len(all))},
	}
	record := func(cand *candidate, opSig sig) {
		res.kept++
		for _, in := range cand.inputs {
			if in.moved {
				res.moves++
			}
		}
		total := cand.pathTotals(p.cfg.Objective, pareto)
		for idx := range o.Outputs {
			tag := cand.mo.OutputTag(idx)
			e := &tagEntry{
				meta:     tag.Meta,
				metaKey:  tag.Key,
				records:  cand.outRecords,
				bytes:    cand.outBytes,
				cost:     total.cost,
				time:     total.time,
				money:    total.money,
				cand:     cand,
				outIndex: idx,
			}
			e.sig = derivedEntrySig(cand, opSig, idx, e.metaKey, total, pareto)
			p.cache.rowsAlloc++
			res.inserts = append(res.inserts, insertRec{out: idx, e: e})
		}
	}
	for i, mo := range all {
		if !p.cache.usable(ms.engines[i]) {
			continue
		}
		res.foot.estOps = append(res.foot.estOps, mo.Name)
		res.tried++
		if pareto {
			for _, cand := range p.paretoCandidates(o, mo, dp) {
				record(cand, ms.opSigs[i])
			}
		} else if cand := p.tryCandidate(o, mo, dp); cand != nil {
			record(cand, ms.opSigs[i])
		}
	}
	return res
}

type pathTotals struct{ cost, time, money float64 }

// pathTotals accumulates the candidate's path estimates. The two tables sum
// in different orders — the scalar one adds the operator last, the Pareto
// one first and folds no objective — and floating-point addition does not
// associate, so each keeps its own to stay bit-identical.
func (c *candidate) pathTotals(obj Objective, pareto bool) pathTotals {
	var t pathTotals
	if pareto {
		t.time, t.money = c.opTime, c.opMoney
	}
	for _, in := range c.inputs {
		t.cost += in.entry.cost
		t.time += in.entry.time
		t.money += in.entry.money
		if in.moved {
			if !pareto {
				t.cost += obj(in.moveTime, in.moveCost)
			}
			t.time += in.moveTime
			t.money += in.moveCost
		}
	}
	if !pareto {
		t.cost += obj(c.opTime, c.opMoney)
		t.time += c.opTime
		t.money += c.opMoney
	}
	return t
}

// tryCandidate resolves every input slot of mo against the dpTable,
// inserting moves where required, and estimates the operator itself.
// It returns nil when the candidate is infeasible.
func (p *Planner) tryCandidate(o *workflow.Node, mo *operator.Materialized, dp table) *candidate {
	inputs := make([]inputChoice, len(o.Inputs))
	var inRecords, inBytes int64
	obj := p.cfg.Objective
	for i, in := range o.Inputs {
		row := dp[in]
		if len(row) == 0 {
			return nil
		}
		var best inputChoice
		bestCost := 0.0
		for _, tin := range row {
			choice, cost := inputChoice{entry: tin}, tin.cost
			if !mo.AcceptsInput(i, tin.meta) {
				// checkMove: a single move/transform bridges the mismatch.
				choice.moved = true
				choice.moveTime = p.cfg.MoveSeconds(tin.bytes)
				choice.moveCost = choice.moveTime // one cost unit per second moved
				cost += obj(choice.moveTime, choice.moveCost)
			}
			if best.entry == nil || cost < bestCost {
				best, bestCost = choice, cost
			}
		}
		inputs[i] = best
		inRecords += best.entry.records
		inBytes += best.entry.bytes
	}
	return p.estimate(o, mo, inputs, inRecords, inBytes)
}

// estimate provisions mo for the resolved inputs and asks the Estimator, in
// one call, for its time, cost and output sizes. It returns nil when the
// configuration is infeasible.
func (p *Planner) estimate(o *workflow.Node, mo *operator.Materialized, inputs []inputChoice, inRecords, inBytes int64) *candidate {
	res := p.cfg.Resources(mo, inRecords, inBytes)
	feats := p.feats
	clear(feats)
	feats["records"] = float64(inRecords)
	feats["bytes"] = float64(inBytes)
	feats["nodes"] = float64(res.Nodes)
	feats["cores"] = float64(res.CoresPerN)
	feats["memoryMB"] = float64(res.MemMBPerN)
	for k, v := range mo.Params() {
		feats[k] = v
	}
	e := p.cfg.Estimator.Estimates(mo.Name, feats)
	if !e.ExecTimeOK || !e.CostOK {
		return nil
	}
	cand := &candidate{
		node: o, mo: mo, res: res, inputs: inputs, opTime: e.ExecTime, opMoney: e.Cost,
		outRecords: inRecords, outBytes: inBytes,
	}
	if e.OutRecords > 0 {
		cand.outRecords = int64(e.OutRecords)
	}
	if e.OutBytes > 0 {
		cand.outBytes = int64(e.OutBytes)
	}
	return cand
}

// movedMetaLocked derives the dataset tag after a move: the source tag
// overlaid with the destination's location/format requirements (wildcards
// erased). It is a pure function of its arguments, memoized in the cache per
// (source tag key, requirement tree): the trees are shared by every plan that
// makes the same move, and read-only.
func (p *Planner) movedMetaLocked(src *tagEntry, req *metadata.Tree) *metadata.Tree {
	key := movedKey{src.metaKey, req}
	if out, ok := p.cache.moved[key]; ok {
		return out
	}
	out := src.meta.Clone()
	req.Walk(func(path string, n *metadata.Tree) {
		if v := n.Value(); path != "" && v != "" && v != metadata.Wildcard {
			out.Set(path, v)
		}
	})
	p.cache.moved[key] = out
	return out
}

// extract backtracks from a target entry, materializing plan steps (with
// move steps where inputs were bridged). Must be called with p.mu held.
func (p *Planner) extract(g *workflow.Graph, best *tagEntry) *Plan {
	// A plan has about one step per operator node: half the graph.
	plan := &Plan{Target: g.Target, Steps: make([]*Step, 0, g.Len()/2)}
	candSteps := make(map[*candidate]int, g.Len()/2)
	var build func(e *tagEntry) (int, bool)
	build = func(e *tagEntry) (int, bool) {
		if e.cand == nil {
			return -1, false // workflow source dataset
		}
		if id, ok := candSteps[e.cand]; ok {
			return id, true
		}
		c := e.cand
		step := &Step{
			Kind:         StepOperator,
			Name:         c.node.Name + "/" + c.mo.Name,
			WorkflowNode: c.node.Name,
			Op:           c.mo,
			Engine:       c.mo.Engine(),
			Algorithm:    c.mo.Algorithm(),
			Res:          c.res,
			Params:       c.mo.Params(),
			OutRecords:   c.outRecords,
			OutBytes:     c.outBytes,
			EstTimeSec:   c.opTime,
			EstCost:      c.opMoney,
		}
		if len(c.node.Outputs) > 0 {
			step.OutDataset = c.node.Outputs[0].Name
			step.OutMeta = c.mo.OutputSpec(0)
		}
		for i, in := range c.inputs {
			step.InRecords += in.entry.records
			step.InBytes += in.entry.bytes
			depID, isStep := build(in.entry)
			producerID := depID
			if in.moved {
				mv := &Step{
					Kind:       StepMove,
					Name:       "move->" + c.node.Name,
					Engine:     "move",
					Algorithm:  "move",
					InRecords:  in.entry.records,
					InBytes:    in.entry.bytes,
					OutRecords: in.entry.records,
					OutBytes:   in.entry.bytes,
					EstTimeSec: in.moveTime,
					EstCost:    in.moveCost,
					OutMeta:    p.movedMetaLocked(in.entry, c.mo.InputConstraint(i)),
				}
				if isStep {
					mv.DependsOn = append(mv.DependsOn, depID)
				} else {
					mv.SourceInputs = append(mv.SourceInputs, c.node.Inputs[i].Name)
				}
				mv.ID = len(plan.Steps)
				plan.Steps = append(plan.Steps, mv)
				producerID = mv.ID
				isStep = true
			}
			if isStep {
				step.DependsOn = append(step.DependsOn, producerID)
			} else {
				step.SourceInputs = append(step.SourceInputs, c.node.Inputs[i].Name)
			}
		}
		step.ID = len(plan.Steps)
		plan.Steps = append(plan.Steps, step)
		candSteps[c] = step.ID
		return step.ID, true
	}
	build(best)

	// The DP totals are a tree relaxation (see the package comment): shared
	// producers were charged once per consuming branch, but extraction
	// deduplicated them via candSteps. Recompute the reported estimates from
	// the steps actually emitted.
	plan.EstTimeSec, plan.EstCost = plan.StepTotals()
	return plan
}

// StepTotals recomputes the plan's estimates from its deduplicated steps:
// total cost is the sum over unique steps, total time the critical path over
// the DependsOn edges (steps with only source inputs start at zero). Steps
// are stored in dependency order and a step's ID is its position, so a single
// forward pass suffices.
func (pl *Plan) StepTotals() (timeSec, cost float64) {
	finish := make([]float64, len(pl.Steps))
	for i, s := range pl.Steps {
		start := 0.0
		for _, dep := range s.DependsOn {
			if f := finish[dep]; f > start {
				start = f
			}
		}
		f := start + s.EstTimeSec
		finish[i] = f
		if f > timeSec {
			timeSec = f
		}
		cost += s.EstCost
	}
	return timeSec, cost
}
