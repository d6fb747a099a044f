package scheduler

import (
	"fmt"
	"math"
	"time"
)

// RunState is the policy-visible view of one run. All times are virtual
// seconds since simulation start.
type RunState struct {
	ID       string
	Workflow string
	Tenant   string
	// User subdivides a tenant for hierarchical fair-share accounting;
	// Priority biases that accounting (higher = charged less per node-second).
	User     string
	Priority int
	Status   Status

	SubmittedSec float64
	StartedSec   float64
	// DeadlineSec is the absolute virtual-time deadline (0 = none).
	DeadlineSec float64
	// LeasedNodes is the current lease size (0 while queued/suspended).
	LeasedNodes int
	// LeasedCores/LeasedMemMB are the lease's total capacity footprint per
	// dimension — slice dimensions times nodes, memory capped at physical
	// node memory. The inputs of DRF dominant-share ranking.
	LeasedCores int
	LeasedMemMB int
	// DemandCores/DemandMemMB are the run's per-node slice demand
	// (0,0 = whole-node leases).
	DemandCores int
	DemandMemMB int

	// EstTimeSec/EstCost are the planner's estimates for the whole run
	// (0 when no Estimate hook is wired or the policy did not ask for one).
	EstTimeSec float64
	EstCost    float64
	// RanSec is the virtual time the run has spent actually executing
	// (suspension windows excluded).
	RanSec float64
	// Preemptions counts how many times the run has been suspended.
	Preemptions int
	// Preempting marks an active run whose suspension has been requested
	// but has not yet reached an operator boundary; its nodes are not free
	// yet and it must not be preempted again.
	Preempting bool
}

// State is the scheduler state handed to Policy.Decide. It is an indexed
// view over incrementally maintained structures, not a materialized copy:
// accessors walk the live index under the scheduler lock and build RunStates
// on demand, so a decision round costs O(runs examined), not O(runs total).
//
// Iteration orders are deterministic: EachQueued and EachSuspended visit in
// submission order, EachActive in submission order over admitted runs,
// EachWaiting suspended-then-queued (each in submission order) — exactly the
// orders the seed scheduler materialized. EDFHead is the head a stable
// earliest-deadline-first sort of the waiting runs would produce, served
// from a heap. FairNext is the hierarchical fair-share pick (see fair.go).
type State struct {
	NowSec     float64
	TotalNodes int
	// TotalCores/TotalMemMB are the cluster's full capacity per resource
	// dimension — the denominators of DRF dominant shares.
	TotalCores int
	TotalMemMB int
	FreeNodes  int

	s   *Scheduler
	now time.Duration
}

// QueuedLen reports the number of queued runs.
func (st State) QueuedLen() int { return st.s.idx.queue.n }

// ActiveLen reports the number of admitted (running or resuming) runs.
func (st State) ActiveLen() int { return len(st.s.idx.activeOrder) }

// SuspendedLen reports the number of preempted runs awaiting resume.
func (st State) SuspendedLen() int { return len(st.s.idx.suspendedOrder) }

// WaitingLen reports queued + suspended.
func (st State) WaitingLen() int { return st.QueuedLen() + st.SuspendedLen() }

// EachQueued visits queued runs in submission order until fn returns false.
func (st State) EachQueued(fn func(RunState) bool) {
	st.s.idx.queue.each(func(r *Run) bool {
		return fn(st.s.runStateLocked(r, st.now))
	})
}

// EachActive visits admitted runs in submission order until fn returns false.
func (st State) EachActive(fn func(RunState) bool) {
	for _, r := range st.s.idx.activeOrder {
		if !fn(st.s.runStateLocked(r, st.now)) {
			return
		}
	}
}

// EachSuspended visits suspended runs in submission order until fn returns
// false.
func (st State) EachSuspended(fn func(RunState) bool) {
	for _, r := range st.s.idx.suspendedOrder {
		if !fn(st.s.runStateLocked(r, st.now)) {
			return
		}
	}
}

// EachWaiting visits suspended runs first, then queued — both in submission
// order — until fn returns false. Suspended runs hold completed work (and
// committed budget), so policies generally serve them first.
func (st State) EachWaiting(fn func(RunState) bool) {
	stop := false
	st.EachSuspended(func(rs RunState) bool {
		if !fn(rs) {
			stop = true
		}
		return !stop
	})
	if stop {
		return
	}
	st.EachQueued(fn)
}

// EDFHead returns the earliest-deadline waiting run (queued or suspended),
// ties broken by submission time then id — the head a stable EDF sort of
// the waiting set would produce, served in O(1) from the deadline heap.
func (st State) EDFHead() (RunState, bool) {
	r, ok := st.s.idx.edf.peek()
	if !ok {
		return RunState{}, false
	}
	return st.s.runStateLocked(r, st.now), true
}

// SliceFit counts the nodes that could currently host one more
// (coresPer, memPer) slice — the slice-lease analogue of FreeNodes,
// letting slice-aware policies clamp admissions to grantable capacity.
// O(nodes), served straight from the cluster.
func (st State) SliceFit(coresPer, memPer int) int {
	if st.s == nil {
		return 0
	}
	return st.s.cluster.SliceFit(coresPer, memPer)
}

// FairNext returns the waiting run hierarchical fair share would admit next
// (minimal-vruntime tenant, then user, then run). Settling group runtimes to
// now mutates bookkeeping but never a decision: settlement is exact, so a
// group's vruntime is the same whenever it is observed.
func (st State) FairNext() (RunState, bool) {
	if st.s == nil {
		return RunState{}, false
	}
	r := st.s.idx.fair.pick(st.now)
	if r == nil {
		return RunState{}, false
	}
	return st.s.runStateLocked(r, st.now), true
}

// Action is one scheduling decision returned by Policy.Decide. The scheduler
// applies actions in order; an action that no longer applies (run finished,
// nodes vanished) is skipped, never an error.
type Action interface{ isAction() }

// Admit grants a queued run a lease of Nodes whole nodes and starts it.
type Admit struct {
	Run   string
	Nodes int
}

// Resume re-admits a suspended run with a fresh lease of Nodes whole nodes;
// it replans from its done set and continues.
type Resume struct {
	Run   string
	Nodes int
}

// Preempt asks an active run to suspend: the executor stops at the next
// completed-operator boundary, the lease is revoked, and the run parks until
// a later Resume.
type Preempt struct {
	Run string
}

// Resize grows or shrinks an active run's lease to Nodes (shrink releases
// only nodes idle at the operator boundary; see cluster.ShrinkReservation).
type Resize struct {
	Run   string
	Nodes int
}

// Reject refuses a queued run outright; it finishes as failed with Reason.
type Reject struct {
	Run    string
	Reason string
}

func (Admit) isAction()   {}
func (Resume) isAction()  {}
func (Preempt) isAction() {}
func (Resize) isAction()  {}
func (Reject) isAction()  {}

// Policy decides scheduling: given the indexed run state it returns the
// actions to apply — admissions, resumes, lease resizes, preemptions,
// rejections. Decide must be a pure function of its input (it runs under the
// scheduler lock and is re-invoked after every applied batch until it
// quiesces), and it should touch only the runs it needs: the accessors
// materialize run views lazily, so a policy that inspects k runs costs O(k)
// regardless of queue depth.
type Policy interface {
	Name() string
	Decide(st State) []Action
}

// Estimator is the optional marker for policies that need planner estimates
// (EstTimeSec/EstCost on RunState): the scheduler invokes its Estimate hook
// at submission only for such policies, so estimate-free policies keep their
// exact trace behaviour.
type Estimator interface {
	NeedsEstimates() bool
}

// equalShare is the one admission-size rule of the slot-bounded policies: k
// slots, each an equal 1/k slice of the cluster's total nodes (at least one
// node). It returns 0 — hold — when every slot is taken (active >= k) or
// nothing is free. A slice larger than the free pool also holds while
// anything is active (capacity will free up), but on an otherwise idle
// cluster it shrinks to the free pool instead of waiting forever: the
// progress clamp. What counts as active is the caller's choice: FairShare
// counts suspended runs (they hold a slot until they finish), the others
// count admitted runs only.
func equalShare(total, k, free, active int) int {
	if active >= k || free == 0 {
		return 0
	}
	n := total / k
	if n < 1 {
		n = 1
	}
	if n > free {
		if active > 0 {
			return 0
		}
		n = free
	}
	return n
}

// grant gives a waiting run n nodes: a suspended run resumes, a queued one
// is admitted.
func grant(run RunState, n int) Action {
	if run.Status == StatusSuspended {
		return Resume{Run: run.ID, Nodes: n}
	}
	return Admit{Run: run.ID, Nodes: n}
}

// FIFO admits one run at a time and leases it every node: strict submission
// order, zero inter-run interference, serialized makespans. It is fair share
// with a single slot.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Decide implements Policy.
func (FIFO) Decide(st State) []Action { return FairShare{MaxConcurrent: 1}.Decide(st) }

// FairShare admits up to MaxConcurrent runs, each leasing an equal slice of
// the cluster. Contended workloads overlap instead of serializing, trading
// per-run speed for throughput.
type FairShare struct {
	// MaxConcurrent bounds simultaneously admitted runs (min 1).
	MaxConcurrent int
}

// Name implements Policy.
func (f FairShare) Name() string { return fmt.Sprintf("fair-share(%d)", f.slots()) }

func (f FairShare) slots() int {
	if f.MaxConcurrent < 1 {
		return 1
	}
	return f.MaxConcurrent
}

// Decide implements Policy: waiting runs are served in EachWaiting order,
// each with an equal share, until one has to hold — the loop stops there, so
// a burst of queued runs costs O(admissions), not O(queue). Suspended runs
// count as active: they keep their slot.
func (f FairShare) Decide(st State) []Action {
	var actions []Action
	free := st.FreeNodes
	active := st.ActiveLen() + st.SuspendedLen()
	st.EachWaiting(func(head RunState) bool {
		n := equalShare(st.TotalNodes, f.slots(), free, active)
		if n == 0 {
			return false
		}
		actions = append(actions, grant(head, n))
		free -= n
		active++
		return true
	})
	return actions
}

// deadlineOf returns the EDF sort key: a run without a deadline sorts last.
func deadlineOf(r RunState) float64 {
	if r.DeadlineSec <= 0 {
		return math.Inf(1)
	}
	return r.DeadlineSec
}

// edfLess orders runs earliest-deadline-first, breaking ties by submission
// time then ID so the order is total and deterministic.
func edfLess(a, b RunState) bool {
	da, db := deadlineOf(a), deadlineOf(b)
	if da != db {
		return da < db
	}
	if a.SubmittedSec != b.SubmittedSec {
		return a.SubmittedSec < b.SubmittedSec
	}
	return a.ID < b.ID
}

// remainingSec estimates how much execution time a run still needs.
func remainingSec(r RunState) float64 {
	rem := r.EstTimeSec - r.RanSec
	if rem < 0 {
		return 0
	}
	return rem
}

// canYield is the estimate gate on preemption: a victim with a deadline may
// be suspended for waiter only if it would still meet that deadline after
// resuming behind it — now + remaining(waiter) + remaining(victim) within the
// victim's deadline. Runs without deadlines are always preemptible. Written
// as a negation so an estimate that is not a number never blocks a yield.
func (st State) canYield(waiter, victim RunState) bool {
	projected := st.NowSec + remainingSec(waiter) + remainingSec(victim)
	return !(victim.DeadlineSec > 0 && projected > victim.DeadlineSec)
}

// Deadline schedules earliest-deadline-first using planner time estimates:
// waiting runs (queued or suspended) are served in EDF order, each granted
// the whole free pool; when the cluster is full and an earlier-deadline run
// waits behind a later-deadline one, the victim is preempted — but only if
// the estimates say it still meets its own deadline after yielding (runs
// without deadlines are always preemptible). A sole active run with no one
// waiting absorbs freed nodes by growing its lease.
type Deadline struct {
	// MaxPreemptions bounds how many times one run may be suspended
	// (default 1); past it the run keeps its lease to completion.
	MaxPreemptions int
}

// Name implements Policy.
func (Deadline) Name() string { return "deadline" }

// NeedsEstimates implements Estimator: EDF preemption reasons about
// remaining-time estimates.
func (Deadline) NeedsEstimates() bool { return true }

func (d Deadline) maxPreemptions() int {
	if d.MaxPreemptions < 1 {
		return 1
	}
	return d.MaxPreemptions
}

// Decide implements Policy. The waiting head comes from the deadline heap in
// O(1); the preemption branch scans only the active set (bounded by the
// cluster's node count), so a decision round is independent of queue depth.
func (d Deadline) Decide(st State) []Action {
	if st.WaitingLen() == 0 {
		// Nothing waiting: the sole active run absorbs any freed capacity.
		if st.FreeNodes > 0 && st.ActiveLen() == 1 {
			var sole RunState
			st.EachActive(func(a RunState) bool { sole = a; return false })
			if !sole.Preempting {
				return []Action{Resize{Run: sole.ID, Nodes: sole.LeasedNodes + st.FreeNodes}}
			}
		}
		return nil
	}

	head, _ := st.EDFHead()
	if st.FreeNodes > 0 {
		// Serve the most urgent waiting run with the whole free pool.
		return []Action{grant(head, st.FreeNodes)}
	}

	// Cluster full: preempt the latest-deadline active run if the most
	// urgent waiter is EDF-ahead of it and the victim would still meet its
	// own deadline after being suspended and later resumed behind the
	// waiter (canYield).
	var victim RunState
	found := false
	st.EachActive(func(a RunState) bool {
		if a.Preempting || a.Preemptions >= d.maxPreemptions() {
			return true
		}
		if !found || edfLess(victim, a) {
			victim, found = a, true
		}
		return true
	})
	if !found || !edfLess(head, victim) || !st.canYield(head, victim) {
		return nil
	}
	return []Action{Preempt{Run: victim.ID}}
}

// CostQuota enforces per-tenant budgets on concurrently committed modeled
// cost: a queued run is admitted (fair-share-style node slices, up to
// MaxConcurrent runs) only while the summed cost estimates of its tenant's
// active and suspended runs plus its own stay within the tenant's budget;
// otherwise it queues until commitments drain. A run whose own estimate can
// never fit the budget is rejected outright, keeping the queue live.
//
// CostQuota is the one shipped policy whose decision round remains O(waiting)
// rather than O(1): budget rejections can hide anywhere in the queue, so it
// deliberately scans the full waiting set each round.
type CostQuota struct {
	// Budgets maps tenant -> cost budget; tenants not listed fall back to
	// DefaultBudget (0 = unlimited).
	Budgets       map[string]float64
	DefaultBudget float64
	// MaxConcurrent bounds simultaneously admitted runs (default 2).
	MaxConcurrent int
}

// Name implements Policy.
func (CostQuota) Name() string { return "cost-quota" }

// NeedsEstimates implements Estimator: budgets are checked against modeled
// cost.
func (CostQuota) NeedsEstimates() bool { return true }

func (c CostQuota) slots() int {
	if c.MaxConcurrent < 1 {
		return 2
	}
	return c.MaxConcurrent
}

// budget returns the tenant's budget (0 = unlimited).
func (c CostQuota) budget(tenant string) float64 {
	if b, ok := c.Budgets[tenant]; ok {
		return b
	}
	return c.DefaultBudget
}

// Decide implements Policy.
func (c CostQuota) Decide(st State) []Action {
	committed := make(map[string]float64)
	st.EachActive(func(a RunState) bool {
		committed[a.Tenant] += a.EstCost
		return true
	})
	st.EachSuspended(func(a RunState) bool {
		committed[a.Tenant] += a.EstCost
		return true
	})
	free := st.FreeNodes
	activeN := st.ActiveLen()

	var actions []Action
	// Suspended runs hold budget already — resume them first so their
	// commitments convert back into progress.
	st.EachWaiting(func(w RunState) bool {
		b := c.budget(w.Tenant)
		if w.Status != StatusSuspended && b > 0 && w.EstCost > b {
			actions = append(actions, Reject{
				Run:    w.ID,
				Reason: fmt.Sprintf("estimated cost %.1f exceeds tenant %q budget %.1f", w.EstCost, w.Tenant, b),
			})
			return true
		}
		if w.Status != StatusSuspended && b > 0 && committed[w.Tenant]+w.EstCost > b {
			return true // hold until the tenant's commitments drain
		}
		n := equalShare(st.TotalNodes, c.slots(), free, activeN)
		if n == 0 {
			return true // held, but a rejection may still wait further back
		}
		actions = append(actions, grant(w, n))
		if w.Status != StatusSuspended {
			committed[w.Tenant] += w.EstCost
		}
		free -= n
		activeN++
		return true
	})
	return actions
}
