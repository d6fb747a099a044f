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
// operator node and candidate), so the emitted plan is cheaper than the DP
// value suggests. The reported Plan.EstTimeSec/EstCost/EstObjective are
// therefore recomputed from the deduplicated steps after extraction: cost as
// the sum over unique steps, time as the critical path over step
// dependencies. Only step *selection* retains the tree relaxation.
package planner

import (
	"errors"
	"fmt"
	"math"
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

// Prefitter is an Estimator that can bring the models of several operators
// up to date at once. Before a table build reads any estimate, the planner
// hands it the usable matches of every operator node of the workflow.
// Prefit must not retain names: the planner refills one slice.
type Prefitter interface {
	Prefit(names []string)
}

// Estimates are an operator's estimated execution time, monetary cost and
// output size at one configuration. A candidate needs both verdicts, a
// finite non-negative time and cost, and output sizes below 2^63; an output
// size that is not positive keeps the input's.
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
	// retrain should instead use ProfilerRetrain, which evicts only the node
	// results that estimated the operator; library changes and availability
	// need neither, being part of every node's key. See invalidate.go.
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
	// being built, emptied again when its request returns. sets are the
	// match sets of the build's operator nodes in order, prefit the names
	// handed to the Prefitter. feats is the feature map handed to the
	// Estimator, vecs the vectors of the front being pruned; options,
	// optionVec and next are paretoCandidates' per-slot working lists, order
	// and kept prune's; xs is extract's.
	dp              table
	sets            []*matchSet
	prefit          []string
	feats           map[string]float64
	vecs            []pVec
	options         []inputChoice
	optionVec, next []pVec
	order           []int
	kept            []bool
	xs              extractScratch
	// leaves is the leaf pass's list (leavesLocked) and stats the running
	// build's statistics (buildTable).
	leaves []leafRef
	stats  dpStats

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
	return &Planner{cfg: cfg, feats: make(map[string]float64)}, nil
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
// which leaves cost unused. Entries are immutable once built, but for the
// extraction slot last, which only extract touches, under Planner.mu.
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
	// datasets, replan seeds) have none. Neither names a node: extraction
	// binds names from the graph.
	cand *candidate
	// sig is the structural digest of the producing subplan (memo.go).
	sig sig
	// last is the plan last extracted from this entry (extract.go), the
	// one field written after the entry is built; nil until then.
	last *extracted
}

// table is the dpTable: per dataset node, by its position in the graph, its
// entries sorted by tag key. A scalar row holds one entry per key; a Pareto
// row holds each key's front as a run of adjacent entries, in front order.
type table [][]*tagEntry

// insert merges e into a row — the scalar min-merge or a Pareto front merge —
// and counts what the merge did into s.
func (p *Planner) insert(row []*tagEntry, e *tagEntry, pareto bool, s *dpStats) []*tagEntry {
	if pareto {
		row, dropped := p.insertFront(row, e)
		s.prunedFronts += dropped
		return row
	}
	row, kept := insertMin(row, e)
	if kept {
		s.entriesKept++
	}
	return row
}

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

// choice is how entry e satisfies an input slot, moved to the slot's
// engine or not.
func (p *Planner) choice(e *tagEntry, moved bool) inputChoice {
	c := inputChoice{entry: e, moved: moved}
	if moved {
		c.moveTime = p.cfg.MoveSeconds(e.bytes)
		c.moveCost = c.moveTime // one cost unit per second moved
	}
	return c
}

// candidate is one materialized operator choice with resolved inputs. It
// belongs to a cached node result, which nodes of one shape share, so it
// holds no node: inputs[i] resolves the node's i-th input.
type candidate struct {
	mo      *operator.Materialized
	res     Resources
	inputs  []inputChoice
	opTime  float64
	opMoney float64

	outRecords, outBytes int64
	// sig digests every field above (memo.go): candidates of equal sig
	// extract to the same step.
	sig sig
}

// Plan is a materialized execution plan: steps in dependency order. The
// Plan itself is the caller's, but Steps — the slice and every Step it
// points to — is shared with every later plan extracted alike (extract.go)
// and is read-only: copy before changing it.
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

// Step is one unit of a materialized plan. Steps are shared between plans
// and read-only, as Plan.Steps is: copy a Step before changing any field.
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
	// OutMeta is the tag of the produced dataset. Like Params it is also
	// shared with the operator (or, for moves, with other moves) and
	// read-only: clone before changing it.
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
		// Seeds are leaves of the memo (memo.go): replanning with the same
		// surviving intermediates reuses the previous rows.
		if seed, err = p.seedForLocked(g, done); err != nil {
			return nil, err
		}
	}
	row, stats, err := p.targetRowLocked(g, order, seed, false)
	if err != nil {
		return nil, err
	}
	p.recordBuildLocked(stats)
	targetNode, _ := g.Node(g.Target)
	var best *tagEntry
	for _, e := range row {
		if best == nil || e.cost < best.cost {
			best = e
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: target %s unreachable", ErrNoPlan, g.Target)
	}
	plan := p.extract(g, targetNode, best)
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
// validated topological order, from the leaves of the build's leaf pass
// (leavesLocked). Must be called with p.mu held: it reads and populates the
// memo cache, and the table and statistics it returns are the planner's
// scratch, valid until the next build. A hit installs the read-only rows its
// node result cached (memo.go).
func (p *Planner) buildTable(order []*workflow.Node, leaves []leafRef, pareto bool) (table, *dpStats) {
	stats := &p.stats
	*stats = dpStats{}
	dp := slices.Grow(p.dp[:0], len(order))[:len(order)]
	p.dp = dp
	clear(dp)

	// Initialise dpTable with materialized datasets (line 5-10 of Alg. 1).
	for _, l := range leaves {
		dp[l.pos] = p.insert(nil, l.e, pareto, stats)
	}

	// Every operator the DP may estimate is brought up to date in one batch
	// first: the usable matches of every operator node, as evalNode filters
	// them. A dirty operator's node results were evicted by its retrain, so
	// the build would read it anyway.
	sets := p.sets[:0]
	for _, o := range order {
		if o.Kind == workflow.OperatorNode {
			sets = append(sets, p.matchSetLocked(o.Operator))
		}
	}
	p.sets = sets
	if pf, ok := p.cfg.Estimator.(Prefitter); ok {
		names := p.prefit[:0]
		for _, ms := range sets {
			for i, mo := range ms.matches {
				if p.cache.usable(ms.engines[i]) {
					names = append(names, mo.Name)
				}
			}
		}
		p.prefit = names
		pf.Prefit(names)
	}

	for _, o := range order {
		if o.Kind != workflow.OperatorNode {
			continue
		}
		ms := sets[0]
		sets = sets[1:]
		key := p.nodeKey(o, ms, dp, pareto)
		res, ok := p.cache.nodes[key]
		if ok {
			stats.cacheHits++
		} else {
			stats.cacheMisses++
			res = p.evalNode(o, ms, dp, pareto)
			p.cache.nodes[key] = res
		}
		stats.candidatesTried += res.candidatesTried
		stats.candidatesKept += res.candidatesKept
		stats.movesConsidered += res.movesConsidered
		stats.entriesKept += res.entriesKept
		stats.prunedFronts += res.prunedFronts
		for i, out := range o.Outputs {
			dp[out.Pos()] = res.rows[i]
		}
	}
	return dp, stats
}

// evalNode evaluates every materialization of one operator node whose
// engine the build's availability snapshot admits, cold, strictly in library
// (name) order, merging each candidate into the output rows as it goes, so
// the insert sequence — and therefore every downstream plan and trace byte —
// is deterministic.
func (p *Planner) evalNode(o *workflow.Node, ms *matchSet, dp table, pareto bool) *nodeResult {
	all := ms.matches
	res := &nodeResult{
		rows:   make([][]*tagEntry, len(o.Outputs)),
		estOps: make([]string, 0, len(all)),
	}
	record := func(cand *candidate, opSig sig) {
		cand.sig = candidateSig(cand, opSig)
		res.candidatesKept++
		for _, in := range cand.inputs {
			if in.moved {
				res.movesConsidered++
			}
		}
		total := cand.pathTotals(p.cfg.Objective, pareto)
		for idx, out := range o.Outputs {
			tag := cand.mo.OutputTag(idx)
			e := &tagEntry{
				meta:    tag.Meta,
				metaKey: tag.Key,
				records: cand.outRecords,
				bytes:   cand.outBytes,
				cost:    total.cost,
				time:    total.time,
				money:   total.money,
				cand:    cand,
			}
			e.sig = derivedEntrySig(cand, idx, e.metaKey, pareto)
			p.cache.rowsAlloc++
			dp[out.Pos()] = p.insert(dp[out.Pos()], e, pareto, &res.dpStats)
		}
	}
	for i, mo := range all {
		if !p.cache.usable(ms.engines[i]) {
			continue
		}
		res.estOps = append(res.estOps, mo.Name)
		res.candidatesTried++
		if pareto {
			for _, cand := range p.paretoCandidates(o, mo, dp) {
				record(cand, ms.opSigs[i])
			}
		} else if cand := p.tryCandidate(o, mo, dp); cand != nil {
			record(cand, ms.opSigs[i])
		}
	}
	for idx, out := range o.Outputs {
		res.rows[idx] = dp[out.Pos()]
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
		row := dp[in.Pos()]
		if len(row) == 0 {
			return nil
		}
		var best inputChoice
		bestCost := 0.0
		for _, tin := range row {
			// checkMove: a single move/transform bridges a mismatch.
			choice, cost := p.choice(tin, !mo.AcceptsInput(i, tin.meta)), tin.cost
			if choice.moved {
				cost += obj(choice.moveTime, choice.moveCost)
			}
			if best.entry == nil || cost < bestCost {
				best, bestCost = choice, cost
			}
		}
		inputs[i] = best
		var okR, okB bool
		inRecords, okR = addSize(inRecords, best.entry.records)
		inBytes, okB = addSize(inBytes, best.entry.bytes)
		if !okR || !okB {
			return nil
		}
	}
	return p.estimate(mo, inputs, inRecords, inBytes)
}

// addSize is the size a+b, false when the sum wraps.
func addSize(a, b int64) (int64, bool) {
	s := a + b
	return s, s > a == (b > 0)
}

// maxSize is 2^63: an output count or size at or past it fits no int64.
const maxSize = 1 << 63

// amount reports whether v is a usable time or cost: finite and not
// negative.
func amount(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// estimate provisions mo for the resolved inputs and asks the Estimator, in
// one call, for its time, cost and output sizes. It returns nil when the
// configuration is infeasible, and so when a time or cost is not a usable
// amount or an output size would not fit an int64.
func (p *Planner) estimate(mo *operator.Materialized, inputs []inputChoice, inRecords, inBytes int64) *candidate {
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
	if !e.ExecTimeOK || !e.CostOK || !amount(e.ExecTime) || !amount(e.Cost) || e.OutRecords >= maxSize || e.OutBytes >= maxSize {
		return nil
	}
	cand := &candidate{
		mo: mo, res: res, inputs: inputs, opTime: e.ExecTime, opMoney: e.Cost,
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
