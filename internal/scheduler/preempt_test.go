package scheduler

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/cluster"
	"github.com/asap-project/ires/internal/executor"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/vtime"
	"github.com/asap-project/ires/internal/workflow"
)

// susRecord collects, per run, which operator steps executed and when — the
// cross-segment evidence that preemption never re-executes completed work.
type susRecord struct {
	mu    sync.Mutex
	steps map[string][]int // runID -> executed step indices, in order
	spans map[string][]span
}

func newSusRecord() *susRecord {
	return &susRecord{steps: make(map[string][]int), spans: make(map[string][]span)}
}

// susExec is a preemptible stub: it simulates steps sequential operator
// steps of stepDur each, polling the cancel and suspend probes at every step
// boundary like the real executor, and supports Resume by skipping the steps
// named in the done set. A non-zero drain models in-flight gangs: a suspend
// request lands only that much later, without polling the probes again.
type susExec struct {
	clock   *vtime.Clock
	ctx     ExecContext
	steps   int
	stepDur time.Duration
	drain   time.Duration
	rec     *susRecord
}

func susDone(n int) []planner.MaterializedIntermediate {
	out := make([]planner.MaterializedIntermediate, n)
	for i := range out {
		out[i] = planner.MaterializedIntermediate{Dataset: fmt.Sprintf("step-%d", i), Records: 1}
	}
	return out
}

func (e *susExec) run(start int) (*executor.Result, error) {
	begin := e.clock.Now()
	for i := start; i < e.steps; i++ {
		if e.ctx.Canceled() {
			return nil, executor.ErrCanceled
		}
		if e.ctx.Suspend() {
			if e.drain > 0 {
				e.ctx.Party.WaitUntil(e.clock.Now() + e.drain)
			}
			return &executor.Result{
				Makespan:      e.clock.Now() - begin,
				Intermediates: susDone(i),
			}, executor.ErrSuspended
		}
		e.ctx.Party.WaitUntil(e.clock.Now() + e.stepDur)
		e.rec.mu.Lock()
		e.rec.steps[e.ctx.RunID] = append(e.rec.steps[e.ctx.RunID], i)
		e.rec.mu.Unlock()
	}
	end := e.clock.Now()
	e.rec.mu.Lock()
	e.rec.spans[e.ctx.RunID] = append(e.rec.spans[e.ctx.RunID], span{
		runID: e.ctx.RunID, nodes: e.ctx.Lease.Size(), start: begin, end: end,
	})
	e.rec.mu.Unlock()
	return &executor.Result{Makespan: end - begin, Intermediates: susDone(e.steps)}, nil
}

func (e *susExec) Execute(g *workflow.Graph, plan *planner.Plan) (*executor.Result, error) {
	return e.run(0)
}

func (e *susExec) Resume(g *workflow.Graph, done []planner.MaterializedIntermediate) (*executor.Result, error) {
	return e.run(len(done))
}

// susRig wires a scheduler over preemptible stubs; steps/stepDur are keyed
// by run ID (fallback 4 x 10s). estimates (optional) feeds Config.Estimate
// keyed by graph target.
type susRig struct {
	clock  *vtime.Clock
	clu    *cluster.Cluster
	sched  *Scheduler
	rec    *susRecord
	events *trace.Recorder
}

type susSpec struct {
	steps   int
	stepDur time.Duration
	drain   time.Duration
}

func newSusRig(t *testing.T, nodes int, policy Policy, specs map[string]susSpec, estimates map[string][2]float64) *susRig {
	t.Helper()
	rig := &susRig{clock: vtime.NewClock(), rec: newSusRecord(), events: trace.NewRecorder(1 << 12)}
	rig.clu = cluster.New(rig.clock, nodes, 8, 16384)
	cfg := Config{
		Clock:   rig.clock,
		Cluster: rig.clu,
		Policy:  policy,
		Tracer:  rig.events,
		Plan: func(g *workflow.Graph) (*planner.Plan, error) {
			return &planner.Plan{Target: g.Target}, nil
		},
		NewExecutor: func(ctx ExecContext) Exec {
			spec, ok := specs[ctx.RunID]
			if !ok {
				spec = susSpec{steps: 4, stepDur: 10 * time.Second}
			}
			return &susExec{clock: rig.clock, ctx: ctx, steps: spec.steps, stepDur: spec.stepDur, drain: spec.drain, rec: rig.rec}
		},
	}
	if estimates != nil {
		cfg.Estimate = func(g *workflow.Graph) (float64, float64, error) {
			est, ok := estimates[g.Target]
			if !ok {
				return 0, 0, fmt.Errorf("no estimate for %s", g.Target)
			}
			return est[0], est[1], nil
		}
	}
	var err error
	rig.sched, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

// A tight-deadline late arrival preempts the deadline-less run holding the
// whole cluster; the victim suspends at an operator boundary, the urgent run
// meets its deadline, and the victim resumes from its done set without
// re-executing a single completed step.
func TestDeadlinePreemptsAndResumes(t *testing.T) {
	rig := newSusRig(t, 4, Deadline{}, map[string]susSpec{
		"run-001": {steps: 6, stepDur: 10 * time.Second}, // 60s total
		"run-002": {steps: 2, stepDur: 10 * time.Second}, // 20s total
	}, map[string][2]float64{"long": {60, 0}, "urgent": {20, 0}})

	long := rig.sched.Submit(graph("long"))
	var urgent *Run
	rig.clock.Schedule(10*time.Second, func(time.Duration) {
		urgent = rig.sched.SubmitWith(graph("urgent"), SubmitOptions{Deadline: 40 * time.Second})
	})
	rig.sched.Drain()

	if _, _, err := long.Wait(); err != nil {
		t.Fatalf("preempted run failed: %v", err)
	}
	if _, _, err := urgent.Wait(); err != nil {
		t.Fatalf("urgent run failed: %v", err)
	}
	ust := urgent.Status()
	if ust.FinishedSec > 40 {
		t.Fatalf("urgent run finished at %.0fs, past its 40s deadline", ust.FinishedSec)
	}
	lst := long.Status()
	if lst.Preemptions != 1 {
		t.Fatalf("long run preemptions = %d, want 1", lst.Preemptions)
	}
	if lst.SuspendedSec != 20 {
		t.Fatalf("long run suspended for %.0fs, want 20", lst.SuspendedSec)
	}
	// Zero re-execution: the long run's six steps executed exactly once
	// across its two segments, in order.
	rig.rec.mu.Lock()
	steps := append([]int(nil), rig.rec.steps["run-001"]...)
	rig.rec.mu.Unlock()
	if len(steps) != 6 {
		t.Fatalf("long run executed %d steps, want 6 (got %v)", len(steps), steps)
	}
	for i, s := range steps {
		if s != i {
			t.Fatalf("long run re-executed or skipped steps: %v", steps)
		}
	}
	// Total work is conserved: 60s + 20s on a cluster always fully leased
	// to someone = 80s of virtual time.
	if now := rig.clock.Now(); now != 80*time.Second {
		t.Fatalf("final virtual time = %v, want 80s", now)
	}
	if got := rig.clu.ReservedNodes(); got != 0 {
		t.Fatalf("%d nodes still reserved after drain", got)
	}
	if err := rig.clu.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Without preemption (FIFO) the same contention makes the urgent run miss
// its deadline — the scenario the Deadline policy exists for.
func TestFIFOMissesDeadlineDeadlineMeets(t *testing.T) {
	finish := func(policy Policy) float64 {
		rig := newSusRig(t, 4, policy, map[string]susSpec{
			"run-001": {steps: 6, stepDur: 10 * time.Second},
			"run-002": {steps: 2, stepDur: 10 * time.Second},
		}, map[string][2]float64{"long": {60, 0}, "urgent": {20, 0}})
		rig.sched.Submit(graph("long"))
		var urgent *Run
		rig.clock.Schedule(10*time.Second, func(time.Duration) {
			urgent = rig.sched.SubmitWith(graph("urgent"), SubmitOptions{Deadline: 40 * time.Second})
		})
		rig.sched.Drain()
		return urgent.Status().FinishedSec
	}
	if fifoFinish := finish(FIFO{}); fifoFinish <= 40 {
		t.Fatalf("FIFO met the deadline (%.0fs) — contention scenario is too weak", fifoFinish)
	}
	if edfFinish := finish(Deadline{}); edfFinish > 40 {
		t.Fatalf("Deadline policy missed the deadline (%.0fs)", edfFinish)
	}
}

// A victim whose own deadline the estimates say it would miss is not
// preempted, even for an earlier-deadline waiter.
func TestDeadlineRefusesUnsafePreemption(t *testing.T) {
	// Victim: 40s of work, deadline 50s. Suspending it for the waiter's 20s
	// would land it at ~70s > 50s, so the policy must hold the waiter.
	rig := newSusRig(t, 4, Deadline{}, map[string]susSpec{
		"run-001": {steps: 4, stepDur: 10 * time.Second},
		"run-002": {steps: 2, stepDur: 10 * time.Second},
	}, map[string][2]float64{"victim": {40, 0}, "waiter": {20, 0}})
	victim := rig.sched.SubmitWith(graph("victim"), SubmitOptions{Deadline: 50 * time.Second})
	var waiter *Run
	rig.clock.Schedule(10*time.Second, func(time.Duration) {
		waiter = rig.sched.SubmitWith(graph("waiter"), SubmitOptions{Deadline: 35 * time.Second})
	})
	rig.sched.Drain()
	if st := victim.Status(); st.Preemptions != 0 {
		t.Fatalf("victim preempted %d times; the safety check should have refused", st.Preemptions)
	}
	if st := victim.Status(); st.FinishedSec > 50 {
		t.Fatalf("victim missed its deadline anyway: %.0fs", st.FinishedSec)
	}
	if st := waiter.Status(); st.Status != "succeeded" {
		t.Fatalf("waiter = %s, want succeeded after victim finishes", st.Status)
	}
}

// holdVictims wraps a policy for the suspension tests: a victim that has run
// for 10 s is asked to suspend, and the inner policy's offers to resume it are
// dropped — it stays suspended until the test cancels it or the progress
// safety net picks it up on an idle cluster.
type holdVictims struct {
	Policy
	victim func(RunState) bool
}

func (h holdVictims) NeedsEstimates() bool { return true }

func (h holdVictims) Decide(st State) []Action {
	held := make(map[string]bool)
	st.EachSuspended(func(r RunState) bool { held[r.ID] = h.victim(r); return true })
	var out []Action
	for _, a := range h.Policy.Decide(st) {
		if r, ok := a.(Resume); !ok || !held[r.Run] {
			out = append(out, a)
		}
	}
	st.EachActive(func(r RunState) bool {
		if h.victim(r) && r.RanSec >= 10 && !r.Preempting && r.Preemptions == 0 {
			out = append(out, Preempt{Run: r.ID})
		}
		return true
	})
	return out
}

// cancelEventSec returns the virtual time stamped on the run's run.cancel
// event (-1 when it has none).
func cancelEventSec(rig *susRig, id string) float64 {
	for _, ev := range rig.events.ForRun(id) {
		if ev.Type == trace.EvRunCancel {
			return ev.VTimeSec
		}
	}
	return -1
}

// Canceling a suspended run finishes it inside Cancel, at the caller's
// virtual time, without resuming it: the record is terminal, stamped and out
// of every scheduler set when Cancel returns, and the capacity or budget it
// held is handed out in the same instant.
func TestCancelSuspended(t *testing.T) {
	// checkCanceled runs inside the 25 s callback, right after Cancel
	// returned, and again after Drain.
	checkCanceled := func(t *testing.T, rig *susRig, long *Run) {
		t.Helper()
		select {
		case <-long.Done():
		default:
			t.Errorf("Cancel returned with the suspended run not done")
		}
		if st := long.Status(); st.Status != "canceled" || st.FinishedSec != 25 || st.Preemptions != 1 {
			t.Errorf("canceled run = %+v, want canceled at 25s after one preemption", st)
		}
		if at := cancelEventSec(rig, long.ID()); at != 25 {
			t.Errorf("run.cancel stamped %vs, want 25", at)
		}
		if got := rig.sched.SuspendedRuns(); got != 0 {
			t.Errorf("SuspendedRuns after cancel = %d", got)
		}
		if err := rig.sched.CheckIndex(); err != nil {
			t.Error(err)
		}
	}
	drained := func(t *testing.T, rig *susRig, long *Run) {
		t.Helper()
		// Drain's contract: it returns only once every run is terminal — no
		// extra wait on the canceled run's Done.
		rig.sched.Drain()
		checkCanceled(t, rig, long)
		if _, _, err := long.Wait(); !errors.Is(err, ErrCanceled) {
			t.Fatalf("canceled suspended run: err = %v", err)
		}
		if got := rig.clu.ReservedNodes(); got != 0 {
			t.Fatalf("%d nodes still reserved after drain", got)
		}
		if err := rig.clu.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	// By 25s the long run is suspended (it yields at 10s) and the urgent one
	// is mid-flight; cancel the suspended victim.
	t.Run("deadline", func(t *testing.T) {
		rig := newSusRig(t, 4, Deadline{}, map[string]susSpec{
			"run-001": {steps: 6, stepDur: 10 * time.Second},
			"run-002": {steps: 2, stepDur: 10 * time.Second},
		}, map[string][2]float64{"long": {60, 0}, "urgent": {20, 0}})
		long := rig.sched.Submit(graph("long"))
		rig.clock.Schedule(10*time.Second, func(time.Duration) {
			rig.sched.SubmitWith(graph("urgent"), SubmitOptions{Deadline: 40 * time.Second})
		})
		rig.clock.Schedule(25*time.Second, func(time.Duration) {
			if st := long.Status().Status; st != "suspended" {
				t.Errorf("long run %s at 25s, want suspended", st)
			}
			long.Cancel()
			checkCanceled(t, rig, long)
		})
		drained(t, rig, long)
	})

	// The suspended run holds 6 of its tenant's 10 budget units, so the
	// tenant's next 6-unit run queues behind it. Canceling the suspended run
	// frees the budget, and the scheduling round inside Cancel admits the
	// queued run at that very instant.
	t.Run("cost-quota", func(t *testing.T) {
		policy := holdVictims{
			Policy: CostQuota{Budgets: map[string]float64{"acme": 10}, MaxConcurrent: 2},
			victim: func(r RunState) bool { return r.ID == "run-001" },
		}
		// The other tenant's run outlasts the scenario: with a run active the
		// progress safety net leaves the suspended one alone.
		rig := newSusRig(t, 4, policy, map[string]susSpec{
			"run-001": {steps: 6, stepDur: 10 * time.Second},
			"run-002": {steps: 6, stepDur: 10 * time.Second},
			"run-003": {steps: 2, stepDur: 10 * time.Second},
		}, map[string][2]float64{"long": {60, 6}, "other": {60, 1}, "next": {20, 6}})
		long := rig.sched.SubmitWith(graph("long"), SubmitOptions{Tenant: "acme"})
		rig.sched.SubmitWith(graph("other"), SubmitOptions{Tenant: "beta"})
		var next *Run
		rig.clock.Schedule(10*time.Second, func(time.Duration) {
			next = rig.sched.SubmitWith(graph("next"), SubmitOptions{Tenant: "acme"})
		})
		rig.clock.Schedule(25*time.Second, func(time.Duration) {
			if st := long.Status().Status; st != "suspended" {
				t.Errorf("long run %s at 25s, want suspended", st)
			}
			if st := next.Status().Status; st != "queued" {
				t.Errorf("next run %s at 25s, want queued behind the budget", st)
			}
			long.Cancel()
			checkCanceled(t, rig, long)
			if st := next.Status(); st.Status != "running" || st.StartedSec != 25 {
				t.Errorf("after the cancel, next run = %+v, want admitted at 25s", st)
			}
		})
		drained(t, rig, long)
		if st := next.Status(); st.Status != "succeeded" || st.StartedSec != 25 {
			t.Fatalf("next run = %+v, want succeeded after its admission at 25s", st)
		}
	})
}

// A cancel that arrives while a preempted segment is still draining its
// in-flight work — here from a clock callback at the very instant the
// suspension lands — is observed at the landing: the suspension is accounted
// (one preemption, lease revoked) and the run finishes canceled right there
// instead of waiting, suspended, for a resume that would never come.
func TestCancelAtSuspensionLanding(t *testing.T) {
	rig := newSusRig(t, 4, Deadline{}, map[string]susSpec{
		"run-001": {steps: 6, stepDur: 10 * time.Second, drain: 5 * time.Second},
		"run-002": {steps: 2, stepDur: 10 * time.Second},
	}, map[string][2]float64{"long": {60, 0}, "urgent": {20, 0}})
	long := rig.sched.Submit(graph("long"))
	var urgent *Run
	rig.clock.Schedule(10*time.Second, func(time.Duration) {
		urgent = rig.sched.SubmitWith(graph("urgent"), SubmitOptions{Deadline: 40 * time.Second})
	})
	// The long run sees the preempt request at 10s and drains until 15s.
	rig.clock.Schedule(15*time.Second, func(time.Duration) {
		if st := long.Status().Status; st != "running" {
			t.Errorf("long run %s at 15s, want running (draining)", st)
		}
		long.Cancel()
	})
	rig.clock.Schedule(16*time.Second, func(time.Duration) {
		if err := rig.sched.CheckIndex(); err != nil {
			t.Error(err)
		}
	})
	rig.sched.Drain()

	if st := long.Status(); st.Status != "canceled" || st.Preemptions != 1 || st.FinishedSec != 15 || st.LeasedNodes != 0 {
		t.Fatalf("long run = %+v, want canceled at 15s with one preemption and no lease", st)
	}
	if at := cancelEventSec(rig, long.ID()); at != 15 {
		t.Fatalf("run.cancel stamped %vs, want 15", at)
	}
	if st := urgent.Status(); st.Status != "succeeded" || st.StartedSec != 15 {
		t.Fatalf("urgent run = %+v, want admitted at 15s on the revoked lease", st)
	}
	if got := rig.sched.SuspendedRuns(); got != 0 {
		t.Fatalf("SuspendedRuns after drain = %d", got)
	}
	if got := rig.clu.ReservedNodes(); got != 0 {
		t.Fatalf("%d nodes still reserved after drain", got)
	}
	if err := rig.sched.CheckIndex(); err != nil {
		t.Fatal(err)
	}
	if err := rig.clu.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A suspended run is a record, not a parked goroutine: however many runs sit
// suspended, the process holds no goroutine for any of them, and each resumes
// on a fresh one from its banked done set without re-executing a step.
func TestSuspendedRunsHoldNoGoroutine(t *testing.T) {
	// goroutines reads the count from inside a clock callback — every party
	// parked — giving goroutines that already left the clock up to a second
	// to finish exiting.
	goroutines := func(limit int) int {
		n := runtime.NumGoroutine()
		for stop := time.Now().Add(time.Second); n > limit && time.Now().Before(stop); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		return n
	}
	suspendedCount := func(k, limit int) int {
		policy := holdVictims{
			Policy: FairShare{MaxConcurrent: k + 1},
			victim: func(r RunState) bool { return r.Tenant == "victim" },
		}
		// The holder keeps one node busy for 100s, so the safety net leaves
		// the suspended victims alone until it is done.
		rig := newSusRig(t, k+1, policy, map[string]susSpec{"run-001": {steps: 10, stepDur: 10 * time.Second}}, nil)
		rig.sched.SubmitWith(graph("holder"), SubmitOptions{Tenant: "holder"})
		victims := make([]*Run, k)
		for i := range victims {
			victims[i] = rig.sched.SubmitWith(graph("victim"), SubmitOptions{Tenant: "victim"})
		}
		rig.clock.Schedule(10*time.Second, func(time.Duration) { rig.sched.schedule() })
		count := -1
		rig.clock.Schedule(50*time.Second, func(time.Duration) {
			if got := rig.sched.SuspendedRuns(); got != k {
				t.Errorf("k=%d: %d runs suspended at 50s", k, got)
			}
			count = goroutines(limit)
		})
		rig.sched.Drain()
		for _, v := range victims {
			if st := v.Status(); st.Status != "succeeded" || st.Preemptions != 1 {
				t.Fatalf("k=%d: victim = %+v, want succeeded after one preemption", k, st)
			}
			rig.rec.mu.Lock()
			steps := fmt.Sprint(rig.rec.steps[v.ID()])
			rig.rec.mu.Unlock()
			if steps != "[0 1 2 3]" {
				t.Fatalf("k=%d: %s executed steps %s across its segments, want each once", k, v.ID(), steps)
			}
		}
		return count
	}
	base := suspendedCount(1, math.MaxInt)
	for _, k := range []int{8, 64} {
		if got := suspendedCount(k, base); got > base {
			t.Fatalf("%d goroutines alive with %d runs suspended, %d with one", got, k, base)
		}
	}
}

// CostQuota holds runs that would push their tenant past its budget and
// rejects runs that can never fit, while within-budget tenants proceed.
func TestCostQuotaBudget(t *testing.T) {
	est := map[string][2]float64{
		"a1": {10, 6}, "a2": {10, 6}, "a3": {10, 6}, // tenant acme, budget 10
		"big":  {10, 25}, // can never fit acme's budget
		"free": {10, 9},  // unbudgeted tenant
	}
	rig := newSusRig(t, 4, CostQuota{Budgets: map[string]float64{"acme": 10}}, nil, est)
	submit := func(name, tenant string) *Run {
		return rig.sched.SubmitWith(graph(name), SubmitOptions{Tenant: tenant})
	}
	a1 := submit("a1", "acme")
	a2 := submit("a2", "acme")
	a3 := submit("a3", "acme")
	big := submit("big", "acme")
	other := submit("free", "other")
	rig.sched.Drain()

	if _, _, err := big.Wait(); !errors.Is(err, ErrRejected) {
		t.Fatalf("over-budget run: err = %v, want ErrRejected", err)
	}
	for _, r := range []*Run{a1, a2, a3, other} {
		if st := r.Status(); st.Status != "succeeded" {
			t.Fatalf("%s = %s, want succeeded", st.ID, st.Status)
		}
	}
	// Budget 10 vs 6-cost runs: acme's runs must serialize (no two
	// concurrently committed), while the unbudgeted tenant overlaps them.
	snaps := map[string]Snapshot{}
	for _, r := range []*Run{a1, a2, a3} {
		st := r.Status()
		snaps[st.ID] = st
	}
	for id, a := range snaps {
		for jd, b := range snaps {
			if id >= jd {
				continue
			}
			if a.StartedSec < b.FinishedSec && b.StartedSec < a.FinishedSec {
				t.Fatalf("acme runs %s and %s overlapped despite the budget", id, jd)
			}
		}
	}
	if st := other.Status(); st.StartedSec >= snaps["run-001"].FinishedSec {
		t.Fatalf("unbudgeted tenant waited for acme (started %.0fs)", st.StartedSec)
	}
	if err := rig.clu.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Preemption decisions are a pure function of the virtual-time schedule:
// repeated executions produce identical step timelines.
func TestPreemptionDeterminism(t *testing.T) {
	timeline := func() string {
		rig := newSusRig(t, 4, Deadline{}, map[string]susSpec{
			"run-001": {steps: 6, stepDur: 10 * time.Second},
			"run-002": {steps: 2, stepDur: 10 * time.Second},
			"run-003": {steps: 3, stepDur: 5 * time.Second},
		}, map[string][2]float64{"long": {60, 0}, "urgent": {20, 0}, "mid": {15, 0}})
		rig.sched.Submit(graph("long"))
		rig.clock.Schedule(10*time.Second, func(time.Duration) {
			rig.sched.SubmitWith(graph("urgent"), SubmitOptions{Deadline: 40 * time.Second})
		})
		rig.clock.Schedule(12*time.Second, func(time.Duration) {
			rig.sched.SubmitWith(graph("mid"), SubmitOptions{Deadline: 120 * time.Second})
		})
		rig.sched.Drain()
		out := fmt.Sprintf("end=%v;", rig.clock.Now())
		for _, st := range rig.sched.Runs() {
			out += fmt.Sprintf("%s:%s[%0.f-%.0f,p%d];", st.ID, st.Status, st.StartedSec, st.FinishedSec, st.Preemptions)
		}
		return out
	}
	want := timeline()
	for i := 0; i < 5; i++ {
		if got := timeline(); got != want {
			t.Fatalf("iteration %d: timeline %q, want %q", i, got, want)
		}
	}
}
