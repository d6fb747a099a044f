// Indexed incremental scheduler state.
//
// The seed scheduler rebuilt its entire policy input on every event:
// stateLocked materialized a RunState for every queued, active and suspended
// run, and the policies scanned (or sorted) those slices — O(n) bookkeeping
// per event, O(n²)+ over a submission burst. This file replaces that with
// structures maintained as deltas at the scheduling boundaries
// (submit/admit/suspend/resume/finish/cancel/reject):
//
//   - runList: the submission queue as an intrusive doubly-linked list; each
//     Run carries its own list node, so membership tests and removals are
//     O(1) instead of a linear scan per policy action.
//   - edf: a posHeap (heap.go) over every waiting run (queued + suspended)
//     keyed earliest-deadline-first with (submitted, id) tie-breaks. The key
//     is immutable after submission, so heap positions stay valid and the top
//     of the heap is exactly the head the seed scheduler found by sorting.
//   - activeOrder / suspendedOrder: the admitted and suspended sets kept
//     sorted by submission sequence (both are small: active is bounded by
//     the node count, suspended by preemption churn).
//   - fairTree (fair.go): the hierarchical fair-share accounting consumed by
//     the HierarchicalFairShare policy.
//
// CheckIndex cross-checks every structure against a naive from-scratch
// rebuild (naiveStateLocked here, pickNaive in fair.go) — references the storm
// test compares against at every quiescent point, never paths a decision
// takes.
package scheduler

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// runNode is one element of the intrusive queue list.
type runNode struct {
	run        *Run
	prev, next *runNode
}

// runList is the submission queue: FIFO order, O(1) push/remove/membership.
// Membership is intrusive — Run.qnode points at the element — so there is no
// side map to keep in sync.
type runList struct {
	head, tail *runNode
	n          int
}

func (l *runList) push(r *Run) {
	el := &runNode{run: r}
	r.qnode = el
	if l.tail == nil {
		l.head, l.tail = el, el
	} else {
		el.prev = l.tail
		l.tail.next = el
		l.tail = el
	}
	l.n++
}

// remove unlinks the run; no-op when it is not queued.
func (l *runList) remove(r *Run) {
	el := r.qnode
	if el == nil {
		return
	}
	r.qnode = nil
	if el.prev != nil {
		el.prev.next = el.next
	} else {
		l.head = el.next
	}
	if el.next != nil {
		el.next.prev = el.prev
	} else {
		l.tail = el.prev
	}
	el.prev, el.next = nil, nil
	l.n--
}

func (l *runList) front() *Run {
	if l.head == nil {
		return nil
	}
	return l.head.run
}

// each visits queued runs in submission order until fn returns false.
func (l *runList) each(fn func(*Run) bool) {
	for el := l.head; el != nil; el = el.next {
		if !fn(el.run) {
			return
		}
	}
}

// edfKeySec is the EDF heap key: absolute deadline in seconds, +Inf when the
// run has none. It matches deadlineOf on the policy-visible RunState exactly.
func (r *Run) edfKeySec() float64 {
	if r.deadline <= 0 {
		return math.Inf(1)
	}
	return r.deadline.Seconds()
}

// edfRunLess orders waiting runs earliest-deadline-first with submission-time
// then id tie-breaks — the same total order as edfLess over RunStates, so the
// heap top is exactly the head a stable sort would produce.
func edfRunLess(a, b *Run) bool {
	da, db := a.edfKeySec(), b.edfKeySec()
	if da != db {
		return da < db
	}
	as, bs := a.submittedAt.Seconds(), b.submittedAt.Seconds()
	if as != bs {
		return as < bs
	}
	return a.id < b.id
}

// edfOrder ranks the EDF heap by edfRunLess. The key is immutable after
// submission, so entries never need re-heapifying in place.
type edfOrder struct{}

func (edfOrder) less(a, b *Run) bool { return edfRunLess(a, b) }
func (edfOrder) pos(r *Run) *int     { return &r.edfPos }

// insertBySeq adds r to a submission-sequence-sorted slice.
func insertBySeq(runs []*Run, r *Run) []*Run {
	i := sort.Search(len(runs), func(i int) bool { return runs[i].seq > r.seq })
	runs = append(runs, nil)
	copy(runs[i+1:], runs[i:])
	runs[i] = r
	return runs
}

// removeRun drops r from a slice (order preserved).
func removeRun(runs []*Run, r *Run) []*Run {
	for i, x := range runs {
		if x == r {
			copy(runs[i:], runs[i+1:])
			return runs[:len(runs)-1]
		}
	}
	return runs
}

// stateIndex is the incrementally maintained scheduler state. Every method
// is called with the scheduler mutex held; the structures are updated as
// deltas at run lifecycle boundaries and never rebuilt on the hot path.
type stateIndex struct {
	queue          runList
	edf            posHeap[*Run, edfOrder]
	activeOrder    []*Run // admitted runs, submission order (≤ cluster nodes)
	suspendedOrder []*Run // preempted runs, submission order
	fair           fairTree
}

func newStateIndex() stateIndex {
	return stateIndex{fair: newFairTree()}
}

// enqueue registers a freshly submitted run.
func (x *stateIndex) enqueue(r *Run, now time.Duration) {
	x.queue.push(r)
	x.edf.push(r)
	x.fair.enqueue(r, now)
}

// dequeueForGrant pulls a queued run out of the waiting structures ahead of
// an admission; the fair tree is charged by granted.
func (x *stateIndex) dequeueForGrant(r *Run) {
	x.queue.remove(r)
	x.edf.remove(r)
}

// dequeueTerminal removes a queued run that will never execute (cancel,
// reject).
func (x *stateIndex) dequeueTerminal(r *Run) {
	x.queue.remove(r)
	x.edf.remove(r)
	x.fair.remove(r)
}

// unsuspendForGrant pulls a suspended run out of the waiting structures ahead
// of a resume grant.
func (x *stateIndex) unsuspendForGrant(r *Run) {
	x.suspendedOrder = removeRun(x.suspendedOrder, r)
	x.edf.remove(r)
}

// granted records an admission or resume: the run joins the active set and
// starts accruing virtual runtime.
func (x *stateIndex) granted(r *Run, nodes int, now time.Duration) {
	x.activeOrder = insertBySeq(x.activeOrder, r)
	x.fair.grant(r, nodes, now)
}

// suspendLanded records a preemption landing: the run leaves the active set
// and waits (suspended) with its virtual runtime preserved.
func (x *stateIndex) suspendLanded(r *Run, now time.Duration) {
	x.activeOrder = removeRun(x.activeOrder, r)
	x.suspendedOrder = insertBySeq(x.suspendedOrder, r)
	x.edf.push(r)
	x.fair.release(r, now)
	x.fair.enqueue(r, now)
}

// unsuspendTerminal removes a suspended run that will never resume (cancel).
func (x *stateIndex) unsuspendTerminal(r *Run) {
	x.suspendedOrder = removeRun(x.suspendedOrder, r)
	x.edf.remove(r)
	x.fair.remove(r)
}

// finishedActive records a terminal transition of an admitted run.
func (x *stateIndex) finishedActive(r *Run, now time.Duration) {
	x.activeOrder = removeRun(x.activeOrder, r)
	x.fair.release(r, now)
	x.fair.remove(r)
}

// resized records a lease size change of an active run.
func (x *stateIndex) resized(r *Run, nodes int, now time.Duration) {
	x.fair.resize(r, nodes, now)
}

// --- naive rebuild oracle -------------------------------------------------

// naiveStateLocked rebuilds the policy input from scratch out of the run
// records — the seed scheduler's O(n)-per-event path — so CheckIndex can
// compare the incrementally maintained index against an independent source
// of truth: the live records, classified by the active / suspended maps,
// which the index never reads. s.mu held.
func (s *Scheduler) naiveStateLocked(now time.Duration) (queued, active, suspended []RunState) {
	for _, rec := range s.records {
		r := rec.run
		if r == nil {
			continue
		}
		rs := s.runStateLocked(r, now)
		switch {
		case rs.Status == StatusQueued:
			queued = append(queued, rs)
		case s.active[r.id] == r:
			active = append(active, rs)
		case s.suspended[r.id] == r:
			suspended = append(suspended, rs)
		}
	}
	return queued, active, suspended
}

// CheckIndex verifies every incrementally maintained structure against a
// naive from-scratch rebuild: queue/active/suspended membership and order,
// EDF heap size and head, fair-tree registration, and the cached node
// counters (via cluster.CheckInvariants). Status, set membership and index
// entries change together under s.mu, so it may be called at any time.
func (s *Scheduler) CheckIndex() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	nq, na, ns := s.naiveStateLocked(now)

	ids := func(rs []RunState) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = r.ID
		}
		return out
	}
	liveIDs := func(runs []*Run) []string {
		out := make([]string, 0, len(runs))
		for _, r := range runs {
			out = append(out, r.id)
		}
		return out
	}

	var qids []string
	s.idx.queue.each(func(r *Run) bool { qids = append(qids, r.id); return true })
	if got, want := fmt.Sprint(qids), fmt.Sprint(ids(nq)); got != want {
		return fmt.Errorf("queue index %v != naive %v", got, want)
	}
	if s.idx.queue.n != len(nq) {
		return fmt.Errorf("queue count %d != naive %d", s.idx.queue.n, len(nq))
	}
	if got, want := fmt.Sprint(liveIDs(s.idx.activeOrder)), fmt.Sprint(ids(na)); got != want {
		return fmt.Errorf("active index %v != naive %v", got, want)
	}
	if got, want := fmt.Sprint(liveIDs(s.idx.suspendedOrder)), fmt.Sprint(ids(ns)); got != want {
		return fmt.Errorf("suspended index %v != naive %v", got, want)
	}
	if len(s.active) != len(na) || len(s.suspended) != len(ns) {
		return fmt.Errorf("map sizes active=%d suspended=%d != naive %d/%d",
			len(s.active), len(s.suspended), len(na), len(ns))
	}

	// EDF heap: exactly the waiting runs, and its top is the stable-sort head.
	waiting := append(append([]RunState(nil), nq...), ns...)
	if s.idx.edf.len() != len(waiting) {
		return fmt.Errorf("EDF heap has %d entries, want %d waiting", s.idx.edf.len(), len(waiting))
	}
	if len(waiting) > 0 {
		head := waiting[0]
		for _, w := range waiting[1:] {
			if edfLess(w, head) {
				head = w
			}
		}
		if top, _ := s.idx.edf.peek(); top == nil || top.id != head.ID {
			got := "<nil>"
			if top != nil {
				got = top.id
			}
			return fmt.Errorf("EDF head %s != naive %s", got, head.ID)
		}
	}
	if err := s.idx.edf.check(); err != nil {
		return fmt.Errorf("EDF %w", err)
	}

	want := s.idx.queue.n + len(s.idx.suspendedOrder)
	if got, err := s.idx.fair.check(now); err != nil {
		return err
	} else if got != want {
		return fmt.Errorf("fair tree tracks %d waiting runs, want %d", got, want)
	}
	return s.cluster.CheckInvariants()
}
