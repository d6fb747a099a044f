package musqle

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// NodeKind enumerates plan-tree node types.
type NodeKind int

// Plan node kinds.
const (
	NodeScan NodeKind = iota
	NodeJoin
	NodeMove
)

// PlanNode is one node of a multi-engine plan tree. Engine is where the
// node's result resides after execution.
type PlanNode struct {
	Kind NodeKind

	Table       string    // NodeScan
	Left, Right *PlanNode // NodeJoin
	Child       *PlanNode // NodeMove

	Engine   string
	EstRows  float64
	EstBytes float64
	// CostSec is the cumulative estimated cost including children.
	CostSec float64
	// mask records which query tables the subtree covers.
	mask uint
}

// OptimizedPlan is the optimizer's output.
type OptimizedPlan struct {
	Root    *PlanNode
	EstSec  float64 // including per-engine startup
	EstRows float64
	// OptimizationTime is the wall-clock planning duration.
	OptimizationTime time.Duration
	// EnginesUsed lists distinct engines in the plan.
	EnginesUsed []string
}

// Optimizer performs location-aware multi-engine join ordering by dynamic
// programming over connected subgraphs of the join graph, keeping the best
// plan per (subgraph, engine) pair — the dpTable extension of Appendix B
// Algorithm 1.
type Optimizer struct {
	Cat *Catalog
	Reg *Registry
	// StatsInjection mirrors the injectStats API: when true (the default
	// via NewOptimizer) the optimizer's intermediate cardinality estimates
	// are passed to engine cost calls; when false, engines fall back to
	// defaultRows for intermediates — the ablation of the paper's
	// statistics-injection contribution.
	StatsInjection bool
}

const (
	// defaultRows is the cardinality engines assume for un-injected
	// intermediates.
	defaultRows = 1000
	// rowBytes is the assumed width of intermediate rows.
	rowBytes = 48
)

// NewOptimizer builds an optimizer with statistics injection enabled.
func NewOptimizer(cat *Catalog, reg *Registry) *Optimizer {
	return &Optimizer{Cat: cat, Reg: reg, StatsInjection: true}
}

// MaxTables bounds the bitmask DP.
const MaxTables = 16

// Optimize finds the minimum-estimated-time multi-engine plan for a query.
func (o *Optimizer) Optimize(q *Query) (*OptimizedPlan, error) {
	return o.optimize(q, o.Reg.Names())
}

// OptimizeOn finds the best plan restricted to a single engine (every table
// not resident there is loaded first) — the single-engine baselines of the
// evaluation.
func (o *Optimizer) OptimizeOn(q *Query, engineName string) (*OptimizedPlan, error) {
	if _, ok := o.Reg.Get(engineName); !ok {
		return nil, fmt.Errorf("musqle: unknown engine %q", engineName)
	}
	return o.optimize(q, []string{engineName})
}

type queryCtx struct {
	q        *Query
	tables   []string
	idx      map[string]int
	adj      []uint // adjacency mask per table index
	edgeSel  map[[2]int]float64
	leafRaw  []float64 // unfiltered cardinalities
	leafRows []float64 // post-filter estimates
	rowsMemo map[uint]float64
}

func (o *Optimizer) optimize(q *Query, allowed []string) (*OptimizedPlan, error) {
	started := time.Now()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(q.Tables) > MaxTables {
		return nil, fmt.Errorf("musqle: %d tables exceeds the %d-table optimizer limit", len(q.Tables), MaxTables)
	}
	ctx, err := o.buildCtx(q)
	if err != nil {
		return nil, err
	}
	sort.Strings(allowed)

	// dp[mask][engine] -> best plan with result residing on engine.
	dp := make([]map[string]*PlanNode, 1<<len(ctx.tables))

	// Leaves.
	for i, t := range ctx.tables {
		mask := uint(1) << i
		dp[mask] = make(map[string]*PlanNode)
		ti, _ := o.Cat.Table(t)
		raw := ctx.leafRaw[i]
		est := ctx.leafRows[i]
		bytes := est * rowBytes

		// Scan at each holder.
		holders := make(map[string]bool, len(ti.Engines))
		for _, h := range ti.Engines {
			holders[h] = true
		}
		for _, e := range allowed {
			eng, ok := o.Reg.Get(e)
			if !ok {
				return nil, fmt.Errorf("musqle: unknown engine %q", e)
			}
			if holders[e] {
				dp[mask][e] = &PlanNode{
					Kind: NodeScan, Table: t, Engine: e,
					EstRows: est, EstBytes: bytes,
					CostSec: eng.ScanSec(raw, raw*rowBytes),
					mask:    mask,
				}
			}
		}
		// Scanning on a non-allowed holder then loading is still legal even
		// for the forced single-engine baseline (the data must come from
		// somewhere).
		var cheapestHolder *PlanNode
		for _, h := range ti.Engines {
			eng, ok := o.Reg.Get(h)
			if !ok {
				continue
			}
			n := &PlanNode{
				Kind: NodeScan, Table: t, Engine: h,
				EstRows: est, EstBytes: bytes,
				CostSec: eng.ScanSec(raw, raw*rowBytes),
				mask:    mask,
			}
			if cheapestHolder == nil || n.CostSec < cheapestHolder.CostSec {
				cheapestHolder = n
			}
		}
		if cheapestHolder == nil {
			return nil, fmt.Errorf("musqle: table %s resides on no registered engine", t)
		}
		for _, e := range allowed {
			if dp[mask][e] != nil {
				continue
			}
			eng, _ := o.Reg.Get(e)
			dp[mask][e] = &PlanNode{
				Kind: NodeMove, Child: cheapestHolder, Engine: e,
				EstRows: est, EstBytes: bytes,
				CostSec: cheapestHolder.CostSec + eng.LoadSec(est, bytes),
				mask:    mask,
			}
		}
	}

	full := uint(1)<<len(ctx.tables) - 1
	for mask := uint(1); mask <= full; mask++ {
		if bits.OnesCount(mask) < 2 || !ctx.connected(mask) {
			continue
		}
		if dp[mask] == nil {
			dp[mask] = make(map[string]*PlanNode)
		}
		outRows := ctx.rows(mask)
		outBytes := outRows * rowBytes
		lowest := mask & (^mask + 1)
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			if sub&lowest == 0 {
				continue // canonical split: keep the lowest bit on the left
			}
			rest := mask ^ sub
			if !ctx.connected(sub) || !ctx.connected(rest) || !ctx.joined(sub, rest) {
				continue
			}
			for _, e := range allowed {
				eng, _ := o.Reg.Get(e)
				left := o.atEngine(dp[sub], e, eng)
				right := o.atEngine(dp[rest], e, eng)
				if left == nil || right == nil {
					continue
				}
				lRows, rRows := left.EstRows, right.EstRows
				if !o.StatsInjection {
					// Without injected statistics the engine assumes a
					// default cardinality for non-base inputs.
					if left.Kind != NodeScan {
						lRows = defaultRows
					}
					if right.Kind != NodeScan {
						rRows = defaultRows
					}
				}
				joinSec, ok := eng.JoinSec(lRows, rRows, outRows)
				if !ok {
					continue
				}
				node := &PlanNode{
					Kind: NodeJoin, Left: left, Right: right, Engine: e,
					EstRows: outRows, EstBytes: outBytes,
					CostSec: left.CostSec + right.CostSec + joinSec,
					mask:    mask,
				}
				if cur := dp[mask][e]; cur == nil || node.CostSec < cur.CostSec {
					dp[mask][e] = node
				}
			}
		}
	}

	var best *PlanNode
	bestTotal := math.Inf(1)
	for _, e := range allowed {
		n := dp[full][e]
		if n == nil {
			continue
		}
		total := n.CostSec + startupTotal(o.Reg, n)
		if total < bestTotal {
			best, bestTotal = n, total
		}
	}
	if best == nil {
		return nil, fmt.Errorf("musqle: no feasible plan (engine memory limits?)")
	}
	return &OptimizedPlan{
		Root:             best,
		EstSec:           bestTotal,
		EstRows:          best.EstRows,
		OptimizationTime: time.Since(started),
		EnginesUsed:      enginesOf(best),
	}, nil
}

// atEngine returns the cheapest way to have the subresult resident on e:
// either it is already there, or the best foreign plan is moved in.
func (o *Optimizer) atEngine(options map[string]*PlanNode, e string, eng Engine) *PlanNode {
	best := options[e]
	for from, n := range options {
		if from == e {
			continue
		}
		rows := n.EstRows
		if !o.StatsInjection {
			rows = defaultRows
		}
		moved := &PlanNode{
			Kind: NodeMove, Child: n, Engine: e,
			EstRows: n.EstRows, EstBytes: n.EstBytes,
			CostSec: n.CostSec + eng.LoadSec(rows, n.EstBytes),
			mask:    n.mask,
		}
		if best == nil || moved.CostSec < best.CostSec {
			best = moved
		}
	}
	return best
}

func (o *Optimizer) buildCtx(q *Query) (*queryCtx, error) {
	ctx := &queryCtx{
		q:        q,
		tables:   q.Tables,
		idx:      make(map[string]int, len(q.Tables)),
		adj:      make([]uint, len(q.Tables)),
		edgeSel:  make(map[[2]int]float64),
		rowsMemo: make(map[uint]float64),
	}
	for i, t := range q.Tables {
		ctx.idx[t] = i
	}
	for _, j := range q.Joins {
		a, okA := ctx.idx[j.LeftTable]
		b, okB := ctx.idx[j.RightTable]
		if !okA || !okB {
			return nil, fmt.Errorf("musqle: join references table outside FROM: %+v", j)
		}
		ctx.adj[a] |= 1 << b
		ctx.adj[b] |= 1 << a
		dl := float64(o.Cat.Distinct(j.LeftTable, j.LeftCol))
		dr := float64(o.Cat.Distinct(j.RightTable, j.RightCol))
		sel := 1.0 / math.Max(1, math.Max(dl, dr))
		key := edgeKey(a, b)
		if prev, ok := ctx.edgeSel[key]; ok {
			ctx.edgeSel[key] = prev * sel
		} else {
			ctx.edgeSel[key] = sel
		}
	}
	ctx.leafRaw = make([]float64, len(q.Tables))
	ctx.leafRows = make([]float64, len(q.Tables))
	for i, t := range q.Tables {
		raw := float64(o.Cat.Rows(t))
		ctx.leafRaw[i] = raw
		est := raw
		for _, f := range q.FiltersOn(t) {
			est *= filterSelectivity(o.Cat, t, f)
		}
		if est < 1 {
			est = 1
		}
		ctx.leafRows[i] = est
	}
	return ctx, nil
}

func filterSelectivity(cat *Catalog, table string, f Filter) float64 {
	d := float64(cat.Distinct(table, f.Col))
	if d < 1 {
		d = 1
	}
	switch f.Op {
	case OpEq:
		return 1 / d
	case OpNe:
		return 1 - 1/d
	default:
		return 1.0 / 3.0
	}
}

func edgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// rows estimates the cardinality of joining all tables in mask under
// attribute independence.
func (c *queryCtx) rows(mask uint) float64 {
	if v, ok := c.rowsMemo[mask]; ok {
		return v
	}
	est := 1.0
	for i := range c.tables {
		if mask&(1<<i) != 0 {
			est *= c.leafRows[i]
		}
	}
	for key, sel := range c.edgeSel {
		if mask&(1<<key[0]) != 0 && mask&(1<<key[1]) != 0 {
			est *= sel
		}
	}
	if est < 1 {
		est = 1
	}
	c.rowsMemo[mask] = est
	return est
}

// connected reports whether the join subgraph induced by mask is connected.
func (c *queryCtx) connected(mask uint) bool {
	if mask == 0 {
		return false
	}
	start := mask & (^mask + 1)
	seen := start
	frontier := start
	for frontier != 0 {
		var next uint
		for i := range c.tables {
			if frontier&(1<<i) != 0 {
				next |= c.adj[i] & mask &^ seen
			}
		}
		seen |= next
		frontier = next
	}
	return seen == mask
}

// joined reports whether at least one join edge crosses the two sets.
func (c *queryCtx) joined(a, b uint) bool {
	for i := range c.tables {
		if a&(1<<i) != 0 && c.adj[i]&b != 0 {
			return true
		}
	}
	return false
}

func enginesOf(n *PlanNode) []string {
	seen := make(map[string]bool)
	var walk func(*PlanNode)
	walk = func(n *PlanNode) {
		if n == nil {
			return
		}
		if n.Kind != NodeMove {
			seen[n.Engine] = true
		}
		walk(n.Left)
		walk(n.Right)
		walk(n.Child)
	}
	walk(n)
	out := make([]string, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

func startupTotal(reg *Registry, n *PlanNode) float64 {
	total := 0.0
	for _, e := range enginesOf(n) {
		if eng, ok := reg.Get(e); ok {
			total += eng.StartupSec()
		}
	}
	return total
}

// Describe renders the plan tree.
func (p *OptimizedPlan) Describe() string {
	var b []byte
	var walk func(n *PlanNode, depth int)
	indent := func(d int) {
		for i := 0; i < d; i++ {
			b = append(b, ' ', ' ')
		}
	}
	walk = func(n *PlanNode, depth int) {
		if n == nil {
			return
		}
		indent(depth)
		switch n.Kind {
		case NodeScan:
			b = append(b, fmt.Sprintf("scan %s @%s (%.0f rows, %.3fs)\n", n.Table, n.Engine, n.EstRows, n.CostSec)...)
		case NodeMove:
			b = append(b, fmt.Sprintf("move -> %s (%.0f rows, %.3fs)\n", n.Engine, n.EstRows, n.CostSec)...)
			walk(n.Child, depth+1)
		case NodeJoin:
			b = append(b, fmt.Sprintf("join @%s (%.0f rows, %.3fs)\n", n.Engine, n.EstRows, n.CostSec)...)
			walk(n.Left, depth+1)
			walk(n.Right, depth+1)
		}
	}
	walk(p.Root, 0)
	return string(b)
}
