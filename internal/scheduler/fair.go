// Hierarchical fair-share accounting (CFS-style virtual runtime).
//
// The fairTree tracks how much weighted cluster time every tenant → user →
// run group has consumed. A running run with n nodes advances virtual
// runtime at rate n/(groupWeight·runWeight) at each level of its chain;
// priority acts as a runtime multiplier — a priority-p run is charged at
// 1/2^p of the nominal rate, so high-priority work keeps its groups "poor"
// and scheduled sooner. The HierarchicalFairShare policy admits the waiting
// run under the (vruntime, name)-minimal tenant, then user, then the
// (vruntime, submission)-minimal run — classic CFS leftmost-leaf selection
// over a three-level hierarchy.
//
// Every level is the same fairGroup — the root's children are tenants, a
// tenant's are users, a user's are its waiting runs — so accounting walks a
// run's chain upward and selection walks downward, one loop each (CFS group
// scheduling: the algorithm applied to groups, then again within the group).
// Each group's arithmetic reads and writes only that group's own fields, so
// the order in which the levels of a chain are visited cannot change a float.
//
// Selection must be O(log n), not a scan, so groups competing for admission
// live in one of two structures per level:
//
//   - a wait heap for groups with waiting work and no running work: their
//     rate is zero, the heap key (vruntime, name) is frozen, and heap
//     positions stay valid without re-heapification;
//   - a hot list for groups with waiting AND running work: their vruntime
//     moves, but the list is bounded by the number of running runs (≤ cluster
//     nodes), so settling and scanning it per pick is O(nodes), independent
//     of queue depth.
//
// Settling is lazy and exact: vruntime integrates rate over the time since
// the last settle, and rates change only at scheduling boundaries, so the
// result is independent of when (or how often) a group is settled — picks
// stay deterministic no matter how many decision rounds observe them.
//
// New groups enter at the level's admission floor — a monotone low-water
// mark advanced every time a group is granted work (the analogue of CFS
// min_vruntime placement) — so a freshly arrived tenant competes fairly
// instead of starving incumbents with a zero vruntime.
package scheduler

import (
	"fmt"
	"math"
	"time"
)

// priorityWeight maps a run priority to its charge divisor: weight 2^p,
// clamped to ±8 doublings.
func priorityWeight(p int) float64 {
	if p > 8 {
		p = 8
	}
	if p < -8 {
		p = -8
	}
	return math.Pow(2, float64(p))
}

// fairGroup is one node of the hierarchy: the root, a tenant or a user. The
// root only holds children and their admission floor; it is never charged.
type fairGroup struct {
	name     string
	weight   float64
	vruntime float64
	// rate is the current vruntime slope: Σ nodes/(weight·runWeight) over
	// running descendant runs. Zero whenever runningRuns is zero (enforced
	// exactly, so wait-heap keys are truly static).
	rate       float64
	lastSettle time.Duration

	waitingRuns int // waiting runs in this subtree
	runningRuns int // running runs in this subtree
	waitPos     int // position in the parent's wait heap (-1 = absent)
	hotIdx      int // position in the parent's hot list (-1 = absent)

	parent   *fairGroup            // nil at the root
	kids     map[string]*fairGroup // child groups by name; nil at the user level
	waitKids posHeap[*fairGroup, groupOrder]
	hotKids  []*fairGroup
	waitRuns posHeap[*Run, fairRunOrder] // user level only
	// floor is the admission floor for new children: groups, or runs at the
	// user level.
	floor float64
}

// settle integrates vruntime up to now. Exact: splitting an interval across
// several settles yields the same value as one settle, because the rate only
// changes at scheduling boundaries (which settle first).
func (g *fairGroup) settle(now time.Duration) {
	if g.rate != 0 && now > g.lastSettle {
		g.vruntime += g.rate * (now - g.lastSettle).Seconds()
	}
	g.lastSettle = now
}

// groupOrder orders groups by (vruntime, name) — a total order, names are
// unique within a parent. Keys are static while a group sits in a wait heap
// (rate zero).
type groupOrder struct{}

func (groupOrder) less(a, b *fairGroup) bool {
	if a.vruntime != b.vruntime {
		return a.vruntime < b.vruntime
	}
	return a.name < b.name
}

func (groupOrder) pos(g *fairGroup) *int { return &g.waitPos }

// fairRunOrder orders a user's waiting runs by (vruntime, submission
// sequence). Waiting runs accrue nothing, so keys are static.
type fairRunOrder struct{}

func (fairRunOrder) less(a, b *Run) bool {
	if a.fairV != b.fairV {
		return a.fairV < b.fairV
	}
	return a.seq < b.seq
}

func (fairRunOrder) pos(r *Run) *int { return &r.fairPos }

// child returns the named child group, creating it at g's admission floor; a
// leaf is a user, whose children are runs.
func (g *fairGroup) child(name string, leaf bool, now time.Duration) *fairGroup {
	c, ok := g.kids[name]
	if !ok {
		c = &fairGroup{name: name, weight: 1, vruntime: g.floor, lastSettle: now,
			waitPos: -1, hotIdx: -1, parent: g, floor: g.floor}
		if !leaf {
			c.kids = make(map[string]*fairGroup)
		}
		g.kids[name] = c
	}
	return c
}

// place reconciles g's membership in its parent's wait heap / hot list after
// its waiting/running counts changed.
func (g *fairGroup) place() {
	p := g.parent
	wantWait := g.waitingRuns > 0 && g.runningRuns == 0
	wantHot := g.waitingRuns > 0 && g.runningRuns > 0
	if g.waitPos >= 0 && !wantWait {
		p.waitKids.remove(g)
	}
	if g.hotIdx >= 0 && !wantHot {
		last := len(p.hotKids) - 1
		p.hotKids[g.hotIdx] = p.hotKids[last]
		p.hotKids[g.hotIdx].hotIdx = g.hotIdx
		p.hotKids[last] = nil
		p.hotKids = p.hotKids[:last]
		g.hotIdx = -1
	}
	if wantWait && g.waitPos < 0 {
		p.waitKids.push(g)
	}
	if wantHot && g.hotIdx < 0 {
		g.hotIdx = len(p.hotKids)
		p.hotKids = append(p.hotKids, g)
	}
}

// charge settles g to now, then moves its slope by delta (a run's nodes over
// its weight; negative when the run stops or shrinks) and its running count
// by running (+1 grant, -1 release, 0 resize).
func (g *fairGroup) charge(delta float64, running int, now time.Duration) {
	g.settle(now)
	g.rate += delta / g.weight
	g.runningRuns += running
	if g.runningRuns == 0 {
		g.rate = 0 // exact, so wait-heap keys freeze cleanly
	}
}

// fairTree is the hierarchy, held by its root.
type fairTree struct {
	root *fairGroup
}

func newFairTree() fairTree {
	return fairTree{root: &fairGroup{kids: make(map[string]*fairGroup)}}
}

// enqueue registers a run as waiting (fresh submission or landed
// suspension). The run keeps any vruntime it already accrued, clamped up to
// the user's admission floor.
func (t *fairTree) enqueue(r *Run, now time.Duration) {
	u := t.root.child(r.tenant, false, now).child(r.user, true, now)
	if r.fairV < u.floor {
		r.fairV = u.floor
	}
	r.fairLast = now
	r.fairOwner = u
	u.waitRuns.push(r)
	for g := u; g.parent != nil; g = g.parent {
		g.waitingRuns++
		g.place()
	}
}

// remove unregisters a run that stops waiting without running (cancel,
// reject, terminal cleanup). No-op when the run is not waiting. A group left
// fully idle is dropped so the tree does not leak groups under tenant churn;
// its history is forgotten — like a CFS sleeper, it re-enters at the
// admission floor, never below it.
func (t *fairTree) remove(r *Run) {
	u := r.fairOwner
	if u == nil {
		return
	}
	if r.fairPos >= 0 {
		u.waitRuns.remove(r)
		for g := u; g.parent != nil; g = g.parent {
			g.waitingRuns--
			g.place()
		}
	}
	if r.fairNodes == 0 {
		r.fairOwner = nil
		for g := u; g.parent != nil && g.waitingRuns == 0 && g.runningRuns == 0; g = g.parent {
			delete(g.parent.kids, g.name)
		}
	}
}

// grant charges a waiting run's chain for nodes leased at now, and advances
// the admission floors (the monotone min_vruntime analogue). Every grant
// comes out of the waiting set, so the run has an owner.
func (t *fairTree) grant(r *Run, nodes int, now time.Duration) {
	u := r.fairOwner
	waiting := 0
	if r.fairPos >= 0 {
		u.waitRuns.remove(r)
		waiting = 1
	}
	delta := float64(nodes) / r.fairWeight
	r.fairLast = now
	r.fairRate = delta
	r.fairNodes = nodes
	if r.fairV > u.floor {
		u.floor = r.fairV
	}
	for g := u; g.parent != nil; g = g.parent {
		g.waitingRuns -= waiting
		g.charge(delta, +1, now)
		g.place()
		if g.vruntime > g.parent.floor {
			g.parent.floor = g.vruntime
		}
	}
}

// settleRun integrates a running run's own vruntime up to now.
func settleRun(r *Run, now time.Duration) {
	if r.fairRate != 0 && now > r.fairLast {
		r.fairV += r.fairRate * (now - r.fairLast).Seconds()
	}
	r.fairLast = now
}

// release stops charging a running run (suspension landing or finish).
func (t *fairTree) release(r *Run, now time.Duration) {
	u := r.fairOwner
	if u == nil || r.fairNodes == 0 {
		return
	}
	settleRun(r, now)
	delta := float64(r.fairNodes) / r.fairWeight
	r.fairRate = 0
	r.fairNodes = 0
	for g := u; g.parent != nil; g = g.parent {
		g.charge(-delta, -1, now)
		g.place()
	}
}

// resize adjusts the charge rate of a running run after a lease grow/shrink.
func (t *fairTree) resize(r *Run, nodes int, now time.Duration) {
	u := r.fairOwner
	if u == nil || r.fairNodes == 0 || nodes == r.fairNodes {
		return
	}
	settleRun(r, now)
	delta := float64(nodes-r.fairNodes) / r.fairWeight
	r.fairRate += delta
	r.fairNodes = nodes
	for g := u; g.parent != nil; g = g.parent {
		g.charge(delta, 0, now)
	}
}

// pick returns the waiting run CFS would admit next: at every level the
// (vruntime, name)-minimal child with waiting work, then that user's minimal
// run. Hot groups (waiting work while also running) are settled to now first
// — the list is bounded by running runs, so a pick costs O(nodes + log
// tenants), independent of queue depth.
func (t *fairTree) pick(now time.Duration) *Run {
	g := t.root
	for g.kids != nil {
		best, _ := g.waitKids.peek()
		for _, k := range g.hotKids {
			k.settle(now)
			if best == nil || (groupOrder{}).less(k, best) {
				best = k
			}
		}
		if best == nil {
			return nil
		}
		g = best
	}
	r, _ := g.waitRuns.peek()
	return r
}

// pickNaive recomputes pick by scanning every group — the from-scratch
// oracle CheckIndex compares the heap-driven pick against.
func (t *fairTree) pickNaive(now time.Duration) *Run {
	g := t.root
	for g.kids != nil {
		var best *fairGroup
		for _, k := range g.kids {
			if k.waitingRuns == 0 {
				continue
			}
			k.settle(now)
			if best == nil || (groupOrder{}).less(k, best) {
				best = k
			}
		}
		if best == nil {
			return nil
		}
		g = best
	}
	var br *Run
	for _, r := range g.waitRuns.items {
		if br == nil || (fairRunOrder{}).less(r, br) {
			br = r
		}
	}
	return br
}

// check validates g's subtree — heap invariants, membership flags, idle
// rates, and every stored count against the sum below it — and returns the
// subtree's waiting and running run counts.
func (g *fairGroup) check(path string) (waiting, running int, err error) {
	if g.kids == nil {
		if err := g.waitRuns.check(); err != nil {
			return 0, 0, fmt.Errorf("fair: waiting runs of %s: %w", path, err)
		}
		return g.waitRuns.len(), g.runningRuns, nil
	}
	if err := g.waitKids.check(); err != nil {
		return 0, 0, fmt.Errorf("fair: waiting groups of %s: %w", path, err)
	}
	for name, k := range g.kids {
		kpath := path + "/" + name
		w, run, err := k.check(kpath)
		if err != nil {
			return 0, 0, err
		}
		if w != k.waitingRuns || run != k.runningRuns {
			return 0, 0, fmt.Errorf("fair: %s counts %d/%d != sums %d/%d", kpath, k.waitingRuns, k.runningRuns, w, run)
		}
		if (k.waitPos >= 0) != (w > 0 && run == 0) {
			return 0, 0, fmt.Errorf("fair: %s wait-heap membership drift", kpath)
		}
		if (k.hotIdx >= 0) != (w > 0 && run > 0) {
			return 0, 0, fmt.Errorf("fair: %s hot-list membership drift", kpath)
		}
		if run == 0 && k.rate != 0 {
			return 0, 0, fmt.Errorf("fair: idle %s has rate %v", kpath, k.rate)
		}
		waiting += w
		running += run
	}
	return waiting, running, nil
}

// check validates the whole tree and the heap-vs-scan pick agreement, and
// returns the number of waiting runs the tree tracks.
func (t *fairTree) check(now time.Duration) (waiting int, err error) {
	waiting, _, err = t.root.check("")
	if err != nil {
		return 0, err
	}
	if waiting > 0 {
		fast, slow := t.pick(now), t.pickNaive(now)
		if fast != slow {
			fid, sid := "<nil>", "<nil>"
			if fast != nil {
				fid = fast.id
			}
			if slow != nil {
				sid = slow.id
			}
			return 0, fmt.Errorf("fair: heap pick %s != scan pick %s", fid, sid)
		}
	}
	return waiting, nil
}
