package planner

import (
	"cmp"
	"fmt"
	"math"
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
	row, stats, err := p.targetRowLocked(g, order, nil, true)
	if err != nil {
		return nil, err
	}
	p.recordBuildLocked(stats)

	// The target row holds one front per tag; the answer is the front of
	// their union.
	targetNode, _ := g.Node(g.Target)
	front, _ := p.pruneFront(row)
	if len(front) == 0 {
		return nil, fmt.Errorf("%w: target %s unreachable", ErrNoPlan, g.Target)
	}
	slices.SortFunc(front, frontOrder)

	plans := make([]*Plan, 0, len(front))
	for _, e := range front {
		plan := p.extract(g, targetNode, e)
		plan.EstObjective = plan.EstTimeSec
		plans = append(plans, plan)
	}
	// Every plan of the front reports the whole call: one DP built them all.
	took := time.Since(started)
	for _, plan := range plans {
		plan.PlanningTime = took
	}
	p.emit(trace.Event{Type: trace.EvPlanFinish, Fields: map[string]float64{
		"pareto":       1,
		"frontSize":    float64(len(plans)),
		"prunedFronts": float64(stats.prunedFronts),
	}})
	return plans, nil
}

// frontOrder orders a front by ascending time, then money. A NaN compares
// neither less nor greater, as under the sort.Slice less it replaced, which
// runs the same pattern-defeating quicksort: a front holding a NaN member
// sorts as it did under sort.Slice.
func frontOrder(a, b *tagEntry) int {
	switch {
	case a.time < b.time || (a.time == b.time && a.money < b.money):
		return -1
	case b.time < a.time || (a.time == b.time && b.money < a.money):
		return 1
	}
	return 0
}

// insertFront merges e into a Pareto row and reports how many entries left
// the front of e's tag key. The front is the survivor list of an earlier
// prune, so when it and e hold no NaN its members are mutually non-dominated
// and one pass settles the merge: e drops if a member costs no more time and
// no more money (an equal member is the older), otherwise the members e
// dominates leave, the rest keep their order and e follows them; a front one
// over MaxFrontPerTag is thinned in time order. This is prune's verdict on the
// front with e appended. A NaN anywhere goes through pruneFront.
func (p *Planner) insertFront(row []*tagEntry, e *tagEntry) ([]*tagEntry, int) {
	lo := 0
	for lo < len(row) && row[lo].metaKey < e.metaKey {
		lo++
	}
	hi := lo
	for hi < len(row) && row[hi].metaKey == e.metaKey {
		hi++
	}
	if isNaN(e.time, e.money) || slices.ContainsFunc(row[lo:hi], func(m *tagEntry) bool { return isNaN(m.time, m.money) }) {
		front, dropped := p.pruneFront(append(row[lo:hi:hi], e))
		return slices.Replace(row, lo, hi, front...), dropped
	}
	for _, m := range row[lo:hi] {
		if m.time <= e.time && m.money <= e.money {
			return row, 1
		}
	}
	w := lo
	for _, m := range row[lo:hi] {
		if !(e.time <= m.time && e.money <= m.money) {
			row[w] = m
			w++
		}
	}
	if dropped := hi - w; dropped > 0 {
		row[w] = e
		n := w + 1 + copy(row[w+1:], row[hi:])
		clear(row[n:])
		return row[:n], dropped
	}
	if hi-lo < MaxFrontPerTag {
		return slices.Insert(row, hi, e), 0
	}
	// No two of these share a time: none dominates another.
	var buf [MaxFrontPerTag + 1]*tagEntry
	all := append(append(buf[:0], row[lo:hi]...), e)
	slices.SortFunc(all, func(a, b *tagEntry) int { return cmp.Compare(a.time, b.time) })
	copy(row[lo:hi], thin(all))
	return row, 1
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
// candidate: the entry chosen for the last of them and whether it is moved,
// chained by index to the partial it extends (-1 for the empty partial). A
// partial is 48 bytes: the move's time is made again from the entry, and an
// int32 index fits every call's partials.
type pPartial struct {
	entry   *tagEntry
	prev    int32
	moved   bool
	v       pVec
	records int64
	bytes   int64
}

// paretoCandidates enumerates the non-dominated input combinations for one
// materialized operator, capped at MaxFrontPerTag combinations. Slots are
// combined on (time, money) vectors alone; only the survivors of each prune
// become partials, and only the final ones materialize their input lists.
//
// An option weakly dominated by an earlier option is dropped before the
// product: each of its sums is weakly dominated by the same partial's sum
// with the earlier option, which precedes it in (time, money, index) order,
// so prune would drop it and everything it could drop. That needs addition
// to be monotone and to make no NaN, so the filter runs only when every
// partial and option vector is finite.
func (p *Planner) paretoCandidates(o *workflow.Node, mo *operator.Materialized, dp table) []*candidate {
	// The partials of every slot, in one slice that dies with the call (a
	// prune keeps at most MaxFrontPerTag); partials[first:] are those of the
	// slots combined so far.
	partials := make([]pPartial, 1, 1+len(o.Inputs)*MaxFrontPerTag)
	partials[0].prev = -1
	first := 0
	options, optionVec, next := p.options, p.optionVec, p.next
	defer func() {
		clear(options[:cap(options)]) // the scratch must not keep entries, and their graph, alive
		p.options, p.optionVec, p.next = options, optionVec, next
	}()
	for i, in := range o.Inputs {
		options, optionVec = options[:0], optionVec[:0]
		finite := true
		for _, tin := range dp[in.Pos()] {
			choice, v := p.choice(tin, !mo.AcceptsInput(i, tin.meta)), pVec{tin.time, tin.money}
			if choice.moved {
				v = pVec{tin.time + choice.moveTime, tin.money + choice.moveCost}
			}
			options, optionVec = append(options, choice), append(optionVec, v)
			finite = finite && v.finite()
		}
		if len(options) == 0 {
			return nil
		}
		cur := partials[first:]
		for _, pt := range cur {
			finite = finite && pt.v.finite()
		}
		if finite {
			options, optionVec = undominated(options, optionVec)
		}
		next = next[:0]
		for _, pt := range cur {
			for _, ov := range optionVec {
				next = append(next, pVec{pt.v.time + ov.time, pt.v.money + ov.money})
			}
		}
		base := first
		first = len(partials)
		for _, idx := range p.prune(next) {
			pi := base + idx/len(options)
			pt, opt := &partials[pi], options[idx%len(options)]
			records, okR := addSize(pt.records, opt.entry.records)
			bytes, okB := addSize(pt.bytes, opt.entry.bytes)
			if !okR || !okB {
				continue
			}
			partials = append(partials, pPartial{
				entry: opt.entry, prev: int32(pi), moved: opt.moved, v: next[idx],
				records: records, bytes: bytes,
			})
		}
	}

	final := partials[first:]
	slots := len(o.Inputs)
	lists := make([]inputChoice, len(final)*slots)
	out := make([]*candidate, 0, len(final))
	for i := range final {
		inputs := lists[i*slots : (i+1)*slots : (i+1)*slots]
		for j, k := first+i, slots-1; k >= 0; j, k = int(partials[j].prev), k-1 {
			inputs[k] = p.choice(partials[j].entry, partials[j].moved)
		}
		if cand := p.estimate(mo, inputs, final[i].records, final[i].bytes); cand != nil {
			out = append(out, cand)
		}
	}
	return out
}

// undominated keeps, in order, the options that no earlier option weakly
// dominates, and returns the shortened lists.
func undominated(options []inputChoice, vs []pVec) ([]inputChoice, []pVec) {
	w := 0
	for j, v := range vs {
		kept := true
		for _, u := range vs[:w] {
			if u.time <= v.time && u.money <= v.money {
				kept = false
				break
			}
		}
		if kept {
			options[w], vs[w] = options[j], v
			w++
		}
	}
	return options[:w], vs[:w]
}

func isNaN(time, money float64) bool { return time != time || money != money }

func (v pVec) finite() bool {
	return math.Abs(v.time) <= math.MaxFloat64 && math.Abs(v.money) <= math.MaxFloat64
}

// prune returns, in their original order, the indices of the vectors that no
// other vector dominates or duplicates at a lower index — thinned, above
// MaxFrontPerTag, to the time extremes and evenly spaced members between.
//
// One pass in index order keeps the survivors so far as a staircase: time
// ascending, money strictly descending. A vector drops when the last stair
// member at or before its time costs no more money (that member dominates
// it, or equals it at a lower index); otherwise it replaces the member of its
// time, if any, and the run after it that costs at least as much. A vector
// with a NaN component neither dominates, is dominated nor equals anything,
// so it stays off the stair and is kept. Without one, the stair is the
// survivors in time order, which thinning reads directly. The result is
// valid until the next prune: it is the planner's scratch.
func (p *Planner) prune(vs []pVec) []int {
	stair, kept := p.order[:0], p.kept[:0]
	kept = append(kept, make([]bool, len(vs))...)
	nan := 0
	for i, v := range vs {
		if isNaN(v.time, v.money) {
			kept[i] = true
			nan++
			continue
		}
		lo, hi := 0, len(stair) // first member later than v
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); vs[stair[m]].time <= v.time {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo > 0 && vs[stair[lo-1]].money <= v.money {
			continue
		}
		from, to := lo, lo
		if lo > 0 && vs[stair[lo-1]].time == v.time {
			from--
		}
		for to < len(stair) && vs[stair[to]].money >= v.money {
			to++
		}
		stair = slices.Replace(stair, from, to, i)
	}
	p.kept = kept
	if nan == 0 && len(stair) > MaxFrontPerTag {
		p.order = stair
		return thin(stair)
	}
	for _, i := range stair {
		kept[i] = true
	}
	nd := stair[:0]
	for i, k := range kept {
		if k {
			nd = append(nd, i)
		}
	}
	p.order = nd
	if len(nd) <= MaxFrontPerTag {
		return nd
	}
	sort.Slice(nd, func(i, j int) bool { return vs[nd[i]].time < vs[nd[j]].time })
	return thin(nd)
}

// thin keeps MaxFrontPerTag members of a time-ordered front longer than
// that: the time extremes and evenly spaced ranks between. It writes in
// place, reading each rank before the write that could cover it.
func thin[T any](front []T) []T {
	step := float64(len(front)-1) / float64(MaxFrontPerTag-1)
	for i := 0; i < MaxFrontPerTag; i++ {
		front[i] = front[int(float64(i)*step)]
	}
	return front[:MaxFrontPerTag]
}
