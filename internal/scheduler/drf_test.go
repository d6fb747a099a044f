package scheduler

import (
	"testing"
	"time"
)

// DRF admission under contention: with every slot held by one tenant, a
// newly arrived tenant (dominant share zero) preempts the over-share
// tenant's latest-submitted run; the victim resumes later and every run
// completes.
func TestDRFPreemptsOverShareTenant(t *testing.T) {
	rig := newSusRig(t, 4, DRF{MaxConcurrent: 2}, map[string]susSpec{
		"run-001": {steps: 4, stepDur: 10 * time.Second},
		"run-002": {steps: 4, stepDur: 10 * time.Second},
		"run-003": {steps: 1, stepDur: 5 * time.Second},
	}, map[string]float64{
		"hog-a": 40, "hog-b": 40, "newcomer": 5,
	})

	a := rig.sched.SubmitWith(graph("hog-a"), SubmitOptions{Tenant: "hog"})
	b := rig.sched.SubmitWith(graph("hog-b"), SubmitOptions{Tenant: "hog"})
	var late *Run
	rig.clock.Schedule(10*time.Second, func(time.Duration) {
		late = rig.sched.SubmitWith(graph("newcomer"), SubmitOptions{Tenant: "fresh"})
	})
	rig.sched.Drain()

	for _, r := range []*Run{a, b, late} {
		if _, _, err := r.Wait(); err != nil {
			t.Fatalf("%s: %v", r.ID(), err)
		}
	}
	// The victim is the over-share tenant's latest submission.
	if snap := b.Status(); snap.Preemptions != 1 {
		t.Fatalf("latest hog run preempted %d times, want 1 (%+v)", snap.Preemptions, snap)
	}
	if snap := a.Status(); snap.Preemptions != 0 {
		t.Fatalf("earliest hog run preempted %d times, want 0", snap.Preemptions)
	}
	if snap := late.Status(); snap.Preemptions != 0 {
		t.Fatalf("newcomer preempted %d times, want 0", snap.Preemptions)
	}
	if err := rig.clu.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Tenant weights divide dominant shares, so they pick the preemption
// victim: with two single-run tenants holding the slots, the waiter's
// preemption lands on the unweighted tenant — the weighted one's share
// ranks far lower despite an identical footprint.
func TestDRFWeightsPickVictim(t *testing.T) {
	rig := newSusRig(t, 4, DRF{Weights: map[string]float64{"gold": 100}, MaxConcurrent: 2}, map[string]susSpec{
		"run-001": {steps: 3, stepDur: 10 * time.Second},
		"run-002": {steps: 3, stepDur: 10 * time.Second},
		"run-003": {steps: 1, stepDur: 5 * time.Second},
	}, map[string]float64{
		"gold-run": 30, "plain-run": 30, "newcomer": 5,
	})

	gold := rig.sched.SubmitWith(graph("gold-run"), SubmitOptions{Tenant: "gold"})
	plain := rig.sched.SubmitWith(graph("plain-run"), SubmitOptions{Tenant: "plain"})
	var late *Run
	rig.clock.Schedule(5*time.Second, func(time.Duration) {
		late = rig.sched.SubmitWith(graph("newcomer"), SubmitOptions{Tenant: "fresh"})
	})
	rig.sched.Drain()

	for _, r := range []*Run{gold, plain, late} {
		if _, _, err := r.Wait(); err != nil {
			t.Fatalf("%s: %v", r.ID(), err)
		}
	}
	if snap := plain.Status(); snap.Preemptions != 1 {
		t.Fatalf("unweighted tenant preempted %d times, want 1", snap.Preemptions)
	}
	if snap := gold.Status(); snap.Preemptions != 0 {
		t.Fatalf("weighted tenant preempted %d times, want 0", snap.Preemptions)
	}
}

// Small scheduler surface exercised alongside DRF: SubmitNamed labels,
// Policy exposure, Done completion channel, CancelByID routing.
func TestSchedulerSurfaceWithDRF(t *testing.T) {
	rig := newSusRig(t, 4, DRF{MaxConcurrent: 2}, map[string]susSpec{
		"run-001": {steps: 1, stepDur: 5 * time.Second},
		"run-002": {steps: 3, stepDur: 10 * time.Second},
	}, map[string]float64{
		"quick": 5, "doomed": 30,
	})
	if got := rig.sched.policy.Name(); got != "drf(2)" {
		t.Fatalf("policy.Name() = %q", got)
	}
	quick := rig.sched.SubmitNamed("labelled", graph("quick"))
	doomed := rig.sched.Submit(graph("doomed"))
	if !rig.sched.CancelByID(doomed.ID()) {
		t.Fatal("CancelByID did not find a live run")
	}
	if rig.sched.CancelByID("run-999") {
		t.Fatal("CancelByID found a nonexistent run")
	}
	rig.sched.Drain()
	<-quick.Done()
	<-doomed.Done()
	if snap := quick.Status(); snap.Workflow != "labelled" || snap.Status != "succeeded" {
		t.Fatalf("labelled run: %+v", snap)
	}
	if snap := doomed.Status(); snap.Status != "canceled" {
		t.Fatalf("canceled run: %+v", snap)
	}
}

// Defaults and naming.
func TestDRFDefaults(t *testing.T) {
	if got := (DRF{}).Name(); got != "drf(4)" {
		t.Fatalf("default Name() = %q", got)
	}
	if got := (DRF{MaxConcurrent: 7}).Name(); got != "drf(7)" {
		t.Fatalf("Name() = %q", got)
	}
	if !(DRF{}).NeedsEstimates() {
		t.Fatal("DRF must require estimates for its preemption gate")
	}
	d := DRF{Weights: map[string]float64{"a": 2, "bad": -1}}
	if w := d.weight("a"); w != 2 {
		t.Fatalf("weight(a) = %v", w)
	}
	if w := d.weight("bad"); w != 1 {
		t.Fatalf("non-positive weight not defaulted: %v", w)
	}
	if w := d.weight("absent"); w != 1 {
		t.Fatalf("absent weight = %v", w)
	}
	// SliceFit on a detached State is a safe zero.
	if got := (State{}).SliceFit(1, 1); got != 0 {
		t.Fatalf("detached SliceFit = %d", got)
	}
}
