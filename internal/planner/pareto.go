package planner

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/workflow"
)

// Pareto-frontier planning — the multi-objective extension the paper lists
// as work-in-progress ("finding Pareto frontier execution plans",
// D3.3 §2.2.3). Instead of folding (time, cost) into a scalar objective,
// the dynamic program keeps, per dataset tag, the set of mutually
// non-dominated (time, cost) plans, pruned to a bounded front size. The
// result is a set of materialized plans the user picks from.

// MaxFrontPerTag bounds the number of non-dominated entries kept per
// dataset tag; larger values trade planning time for front resolution.
const MaxFrontPerTag = 16

type pVec struct {
	time  float64
	money float64
}

// ParetoPlans runs the multi-objective DP and returns the Pareto front of
// materialized plans, sorted by ascending estimated time (descending cost).
func (p *Planner) ParetoPlans(g *workflow.Graph) ([]*Plan, error) {
	started := time.Now()
	order, err := g.ValidatedOrder()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureCacheValidLocked()
	p.emit(trace.Event{Type: trace.EvPlanStart, Fields: map[string]float64{
		"nodes": float64(g.Len()), "pareto": 1,
	}})
	dp, stats := p.buildTable(order, nil, true)
	defer clear(dp)
	p.recordBuildLocked(stats)

	// The target row holds one front per tag; the answer is the front of
	// their union.
	targetNode, _ := g.Node(g.Target)
	front, _ := p.pruneFront(dp[targetNode])
	if len(front) == 0 {
		return nil, fmt.Errorf("%w: target %s unreachable", ErrNoPlan, g.Target)
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].time != front[j].time {
			return front[i].time < front[j].time
		}
		return front[i].money < front[j].money
	})

	plans := make([]*Plan, 0, len(front))
	for _, e := range front {
		plan := p.extract(g.Target, targetNode, e)
		plan.EstObjective = plan.EstTimeSec
		plan.PlanningTime = time.Since(started)
		plans = append(plans, plan)
	}
	p.emit(trace.Event{Type: trace.EvPlanFinish, Fields: map[string]float64{
		"pareto":       1,
		"frontSize":    float64(len(plans)),
		"prunedFronts": float64(stats.prunedFronts),
	}})
	return plans, nil
}

// insertFront merges e into a Pareto row: the front of e's tag key is pruned
// again with e appended. It reports how many entries the prune dropped.
func (p *Planner) insertFront(row []*tagEntry, e *tagEntry) ([]*tagEntry, int) {
	lo := 0
	for lo < len(row) && row[lo].metaKey < e.metaKey {
		lo++
	}
	hi := lo
	for hi < len(row) && row[hi].metaKey == e.metaKey {
		hi++
	}
	front, dropped := p.pruneFront(append(row[lo:hi:hi], e))
	return slices.Replace(row, lo, hi, front...), dropped
}

// pruneFront returns the survivors of prune over the entries' (time, money)
// vectors, in a new slice, and how many entries it dropped.
func (p *Planner) pruneFront(entries []*tagEntry) ([]*tagEntry, int) {
	p.vecs = p.vecs[:0]
	for _, e := range entries {
		p.vecs = append(p.vecs, pVec{e.time, e.money})
	}
	keep := p.prune(p.vecs)
	out := make([]*tagEntry, len(keep))
	for i, k := range keep {
		out[i] = entries[k]
	}
	return out, len(entries) - len(keep)
}

// pPartial is one non-dominated way to satisfy the first input slots of a
// candidate: the choice for the last of them, chained to the partial it
// extends.
type pPartial struct {
	prev    *pPartial
	choice  inputChoice
	v       pVec
	records int64
	bytes   int64
}

// paretoCandidates enumerates the non-dominated input combinations for one
// materialized operator, capped at MaxFrontPerTag combinations. Slots are
// combined on (time, money) vectors alone; only the survivors of each prune
// become partials, and only the final ones materialize their input lists.
func (p *Planner) paretoCandidates(o *workflow.Node, mo *operator.Materialized, dp table) []*candidate {
	partials := []pPartial{{}}
	options, optionVec, next := p.options, p.optionVec, p.next
	defer func() {
		clear(options[:cap(options)]) // the scratch must not keep entries, and their graph, alive
		p.options, p.optionVec, p.next = options, optionVec, next
	}()
	for i, in := range o.Inputs {
		options, optionVec = options[:0], optionVec[:0]
		for _, tin := range dp[in] {
			choice, v := inputChoice{entry: tin}, pVec{tin.time, tin.money}
			if !mo.AcceptsInput(i, tin.meta) {
				choice.moved = true
				choice.moveTime = p.cfg.MoveSeconds(tin.bytes)
				choice.moveCost = choice.moveTime // one cost unit per second moved
				v = pVec{tin.time + choice.moveTime, tin.money + choice.moveCost}
			}
			options, optionVec = append(options, choice), append(optionVec, v)
		}
		if len(options) == 0 {
			return nil
		}
		next = next[:0]
		for _, pt := range partials {
			for _, ov := range optionVec {
				next = append(next, pVec{pt.v.time + ov.time, pt.v.money + ov.money})
			}
		}
		keep := p.prune(next)
		extended := make([]pPartial, len(keep))
		for k, idx := range keep {
			pt, opt := &partials[idx/len(options)], options[idx%len(options)]
			extended[k] = pPartial{
				prev: pt, choice: opt, v: next[idx],
				records: pt.records + opt.entry.records,
				bytes:   pt.bytes + opt.entry.bytes,
			}
		}
		partials = extended
	}

	var out []*candidate
	for i := range partials {
		inputs := make([]inputChoice, len(o.Inputs))
		for pt, k := &partials[i], len(inputs)-1; k >= 0; pt, k = pt.prev, k-1 {
			inputs[k] = pt.choice
		}
		if cand := p.estimate(mo, inputs, partials[i].records, partials[i].bytes); cand != nil {
			out = append(out, cand)
		}
	}
	return out
}

// prune returns, in their original order, the indices of the vectors that no
// other vector dominates or duplicates at a lower index — thinned, above
// MaxFrontPerTag, to the time extremes and evenly spaced members between.
// One sweep in (time, money, index) order finds them: a vector is dropped
// exactly when an earlier one in that order costs no more money. A vector
// with a NaN component neither dominates, is dominated nor equals anything,
// so it stays out of the sweep and is kept. The result is valid until the
// next prune: it is the planner's scratch.
func (p *Planner) prune(vs []pVec) []int {
	order := p.order[:0]
	for i, v := range vs {
		if v.time == v.time && v.money == v.money {
			order = append(order, i)
		}
	}
	p.order = order
	p.dropped = append(p.dropped[:0], make([]bool, len(vs))...)
	dropped := p.dropped
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(vs[a].time, vs[b].time), cmp.Compare(vs[a].money, vs[b].money), a-b)
	})
	minMoney := 0.0
	for n, i := range order {
		if m := vs[i].money; n == 0 || m < minMoney {
			minMoney = m
		} else {
			dropped[i] = true
		}
	}
	nd := order[:0]
	for i := range vs {
		if !dropped[i] {
			nd = append(nd, i)
		}
	}
	if len(nd) <= MaxFrontPerTag {
		return nd
	}
	sort.Slice(nd, func(i, j int) bool { return vs[nd[i]].time < vs[nd[j]].time })
	out := make([]int, 0, MaxFrontPerTag)
	step := float64(len(nd)-1) / float64(MaxFrontPerTag-1)
	for i := 0; i < MaxFrontPerTag; i++ {
		out = append(out, nd[int(float64(i)*step)])
	}
	return out
}
