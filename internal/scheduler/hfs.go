package scheduler

import "fmt"

// HierarchicalFairShare is a CFS-style fair scheduler over a tenant → user →
// run hierarchy. Every running run charges virtual runtime to its chain at
// rate nodes/(weight·2^priority); admission always goes to the waiting run
// under the least-charged tenant, then least-charged user, then the
// least-charged (earliest-submitted on ties) run — so cluster time converges
// to equal shares per tenant, equal shares per user within a tenant, and
// priority acts as a runtime multiplier within a user (a priority-1 run is
// billed half rate, so its group stays schedulable twice as long).
//
// Like FairShare it admits up to MaxConcurrent runs, each leasing an equal
// slice of the cluster; it returns one admission per decision round (the
// scheduler re-decides until quiescence) so every grant re-ranks the
// hierarchy first. It does not preempt: fairness is enforced at admission
// boundaries, which suits operator-granular runs; combine with deadlines via
// a fronting policy if preemptive urgency is needed.
type HierarchicalFairShare struct {
	// MaxConcurrent bounds simultaneously admitted runs (default 4).
	MaxConcurrent int
}

// Name implements Policy.
func (h HierarchicalFairShare) Name() string {
	return fmt.Sprintf("hierarchical-fair-share(%d)", h.slots())
}

func (h HierarchicalFairShare) slots() int {
	if h.MaxConcurrent < 1 {
		return 4
	}
	return h.MaxConcurrent
}

// Decide implements Policy: admit (or resume) the fair-share pick with an
// equal slice of the cluster. Cost per round is O(active + log tenants) —
// independent of queue depth — because the pick comes from the fair tree's
// heaps.
func (h HierarchicalFairShare) Decide(st State) []Action {
	n := equalShare(st.TotalNodes, h.slots(), st.FreeNodes, st.ActiveLen())
	if n == 0 {
		return nil
	}
	cand, ok := st.FairNext()
	if !ok {
		return nil
	}
	return []Action{grant(cand, n)}
}
