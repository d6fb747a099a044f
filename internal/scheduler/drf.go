package scheduler

import "fmt"

// DRF is Dominant Resource Fairness (Ghodsi et al., NSDI'11) over the
// cluster's two resource dimensions. Each tenant's dominant share is the
// larger of its cores share and its memory share — summed over the capacity
// footprints of its active leases and divided by the tenant's weight — and
// admission always goes to a waiting run of the tenant with the smallest
// dominant share. Cores-heavy and memory-heavy tenants therefore each get
// roughly the whole cluster in *their* bottleneck dimension rather than
// splitting node counts, which is the property the DRF cell's gate pins.
//
// When every slot is occupied DRF can preempt: if the most-starved waiting
// tenant's dominant share is strictly below the most-over-share active
// tenant's, the over-share tenant's latest-submitted run is preempted —
// gated by canYield on the victim still being able to meet its own deadline
// after re-running behind the waiter. Preemption requires estimates
// (NeedsEstimates is true) so the gate has real numbers.
//
// Decisions read only the indexed accessors in deterministic order
// (EachActive/EachWaiting); per-tenant aggregation uses map lookups keyed by
// strings encountered in that order, never map iteration, so a fixed seed
// yields a byte-identical decision stream.
type DRF struct {
	// Weights scales each tenant's dominant share down by its weight
	// (share/weight); absent tenants get weight 1. Nil means unweighted.
	Weights map[string]float64
	// MaxConcurrent bounds simultaneously admitted runs (default 4).
	MaxConcurrent int
}

// Name implements Policy.
func (d DRF) Name() string {
	return fmt.Sprintf("drf(%d)", d.slots())
}

// NeedsEstimates marks DRF as estimate-driven: the preemption gate compares
// remaining-time estimates, mirroring Deadline.
func (d DRF) NeedsEstimates() bool { return true }

func (d DRF) slots() int {
	if d.MaxConcurrent < 1 {
		return 4
	}
	return d.MaxConcurrent
}

func (d DRF) weight(tenant string) float64 {
	if w, ok := d.Weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// dominantShares sums active lease footprints per tenant and returns the
// weighted dominant share map. Only tenants with active runs appear; a
// tenant with nothing running has share 0.
func (d DRF) dominantShares(st State) map[string]float64 {
	cores := make(map[string]int)
	mem := make(map[string]int)
	st.EachActive(func(r RunState) bool {
		cores[r.Tenant] += r.LeasedCores
		mem[r.Tenant] += r.LeasedMemMB
		return true
	})
	shares := make(map[string]float64, len(cores))
	for t, c := range cores {
		cs := 0.0
		if st.TotalCores > 0 {
			cs = float64(c) / float64(st.TotalCores)
		}
		ms := 0.0
		if st.TotalMemMB > 0 {
			ms = float64(mem[t]) / float64(st.TotalMemMB)
		}
		s := cs
		if ms > s {
			s = ms
		}
		shares[t] = s / d.weight(t)
	}
	return shares
}

// Decide implements Policy: admit a waiting run of the min-dominant-share
// tenant when a slot is free, otherwise preempt the most-over-share active
// tenant if the estimate gate allows. One action per round, so every grant
// or preemption re-ranks shares first.
func (d DRF) Decide(st State) []Action {
	if st.WaitingLen() == 0 {
		return nil
	}
	shares := d.dominantShares(st)

	// Pick the waiting run whose tenant has the smallest dominant share;
	// EachWaiting's deterministic order (suspended first, then queue order)
	// breaks ties, so the scan keeps the first strictly-smaller tenant.
	var cand RunState
	candShare := 0.0
	found := false
	st.EachWaiting(func(r RunState) bool {
		s := shares[r.Tenant] // 0 for tenants with nothing active
		if !found || s < candShare {
			cand, candShare, found = r, s, true
		}
		return true
	})
	if !found {
		return nil
	}

	k := d.slots()
	if st.ActiveLen() < k && st.FreeNodes > 0 {
		n := equalShare(st.TotalNodes, k, st.FreeNodes, st.ActiveLen())
		if n > 0 && cand.DemandCores > 0 {
			// Slice demand: clamp to nodes that can actually host a slice so
			// the grant cannot bounce off physical capacity. When none can,
			// hold: if nothing is active either, the scheduler's own safety
			// net handles it rather than this policy wedging.
			n = min(n, st.SliceFit(cand.DemandCores, cand.DemandMemMB))
		}
		if n == 0 {
			return nil
		}
		return []Action{grant(cand, n)}
	}

	// Slots full: consider preempting the strictly-most-over-share tenant.
	// At most one preemption may be in flight — victims drain cooperatively
	// to their next boundary, and re-deciding during that window must not
	// pile further victims onto the same waiter (the Deadline pattern).
	draining := false
	maxTenant := ""
	maxShare := -1.0
	st.EachActive(func(r RunState) bool {
		if r.Preempting {
			draining = true
			return false
		}
		if s := shares[r.Tenant]; s > maxShare {
			maxShare, maxTenant = s, r.Tenant
		}
		return true
	})
	if draining {
		return nil
	}
	if maxTenant == "" || maxShare <= candShare || maxTenant == cand.Tenant {
		return nil
	}
	var victim RunState
	haveVictim := false
	st.EachActive(func(r RunState) bool {
		if r.Tenant != maxTenant || r.Preempting || r.Preemptions >= maxPreemptions {
			return true
		}
		if !haveVictim || r.SubmittedSec > victim.SubmittedSec ||
			(r.SubmittedSec == victim.SubmittedSec && r.ID > victim.ID) {
			victim, haveVictim = r, true
		}
		return true
	})
	if !haveVictim || !st.canYield(cand, victim) {
		return nil
	}
	return []Action{Preempt{Run: victim.ID}}
}
