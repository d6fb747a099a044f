package executor

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/faults"
	"github.com/asap-project/ires/internal/planner"
)

// scriptedInjector is a deterministic Injector for tests: it fails the first
// failN RunFault calls per step name, and stretches the first launch of the
// steps listed in stretch.
type scriptedInjector struct {
	mu       sync.Mutex
	failN    map[string]int
	stretch  map[string]float64
	launches map[string]int
}

func (si *scriptedInjector) RunFault(engineName, stepName string, attempt int, durSec float64, now time.Duration) error {
	si.mu.Lock()
	defer si.mu.Unlock()
	if si.failN[stepName] > 0 {
		si.failN[stepName]--
		return faults.ErrInjected
	}
	return nil
}

func (si *scriptedInjector) StretchFactor(engineName, stepName string, now time.Duration) float64 {
	si.mu.Lock()
	defer si.mu.Unlock()
	if si.launches == nil {
		si.launches = map[string]int{}
	}
	si.launches[stepName]++
	if f, ok := si.stretch[stepName]; ok && si.launches[stepName] == 1 {
		return f
	}
	return 1
}

func (f *fixture) checkClean(t *testing.T) {
	t.Helper()
	if err := f.clus.CheckInvariants(); err != nil {
		t.Fatalf("cluster invariants violated: %v", err)
	}
	freeC := freeCores(f.clus)
	capC, _ := f.clus.Capacity()
	if freeC != capC {
		t.Fatalf("containers leaked: %d free of %d", freeC, capC)
	}
	if live := f.clus.LiveContainers(); live != 0 {
		t.Fatalf("%d containers still live", live)
	}
}

// TestRetryExhaustionThenReplan is the table-driven contract of the layered
// recovery: retries absorb transient failures while the budget lasts, and
// only exhaustion falls through to replanning.
func TestRetryExhaustionThenReplan(t *testing.T) {
	cases := []struct {
		name        string
		maxAttempts int
		failures    int // injected failures for the first operator step
		wantReplans int
		wantRetries int
	}{
		{"no faults", 3, 0, 0, 0},
		{"retries absorb transients", 4, 3, 0, 3},
		{"exhaustion falls through to replan", 2, 3, 1, 2},
		{"zero policy preserves fail-then-replan", 0, 1, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			g := chainWorkflow(t, 5_000)
			plan, err := f.plnr.Plan(g)
			if err != nil {
				t.Fatal(err)
			}
			victim := plan.OperatorSteps()[0].Name
			f.exec.Faults = &scriptedInjector{failN: map[string]int{victim: tc.failures}}
			f.exec.Retry = RetryPolicy{MaxAttempts: tc.maxAttempts, BaseBackoff: time.Second}

			res, err := f.execute(g, plan)
			if err != nil {
				t.Fatalf("execution failed: %v", err)
			}
			if res.FinalRecords <= 0 {
				t.Fatal("workflow did not complete")
			}
			if res.Replans != tc.wantReplans {
				t.Fatalf("replans = %d, want %d", res.Replans, tc.wantReplans)
			}
			if res.Retries != tc.wantRetries {
				t.Fatalf("retries = %d, want %d", res.Retries, tc.wantRetries)
			}
			f.checkClean(t)
		})
	}
}

// TestRetryBackoffGrowsInVirtualTime pins the exponential backoff: with base
// 2s and multiplier 2, the relaunches of a thrice-failing step are spaced
// exactly 2s, 4s and 8s apart.
func TestRetryBackoffGrowsInVirtualTime(t *testing.T) {
	f := newFixture(t)
	g := chainWorkflow(t, 5_000)
	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	victim := plan.OperatorSteps()[0].Name
	f.exec.Faults = &scriptedInjector{failN: map[string]int{victim: 3}}
	f.exec.Retry = RetryPolicy{MaxAttempts: 4, BaseBackoff: 2 * time.Second}

	res, err := f.execute(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	var starts []time.Duration
	for _, log := range res.StepLog {
		if log.Name == victim {
			starts = append(starts, log.Start)
		}
	}
	if len(starts) != 4 {
		t.Fatalf("victim step logged %d attempts, want 4", len(starts))
	}
	wantGaps := []time.Duration{2 * time.Second, 4 * time.Second, 8 * time.Second}
	for i, want := range wantGaps {
		if gap := starts[i+1] - starts[i]; gap != want {
			t.Fatalf("gap %d = %v, want %v", i, gap, want)
		}
	}
}

// TestRetryOnTimeWhileSiblingRuns pins that a retry is a stop of its own: a
// branch that fails at launch relaunches the moment its backoff ends, not at
// the next completion of the sibling branch still running beside it.
func TestRetryOnTimeWhileSiblingRuns(t *testing.T) {
	f := newFixture(t)
	g := parallelBranches(t, 5000, 10_000)
	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, s := range plan.OperatorSteps() {
		if s.Engine != engine.EngineJava && (s.WorkflowNode == "wcA" || s.WorkflowNode == "wcB") {
			t.Fatalf("precondition: %s planned on %s, want both branches on Java", s.WorkflowNode, s.Engine)
		}
		if s.WorkflowNode == "wcA" {
			victim = s.Name
		}
	}
	f.exec.Faults = &scriptedInjector{failN: map[string]int{victim: 1}}
	f.exec.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Second}

	res, err := f.execute(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	var logs []StepExec
	for _, log := range res.StepLog {
		if log.Name == victim {
			logs = append(logs, log)
		}
	}
	if len(logs) != 2 || !logs[0].Failed || logs[1].Failed {
		t.Fatalf("victim step logged %+v, want one failure then one success", logs)
	}
	if gap := logs[1].Start - logs[0].End; gap != 2*time.Second {
		t.Fatalf("retry started %v after the failure, want the 2s backoff", gap)
	}
	f.checkClean(t)
}

// TestSpeculativeWinnerLoserAccounting stretches the first attempt of a step
// 10x so the straggler deadline fires, launches a same-choice backup, and
// verifies the backup wins while the loser's containers are fully released.
func TestSpeculativeWinnerLoserAccounting(t *testing.T) {
	f := newFixture(t)
	g := chainWorkflow(t, 5_000)
	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	victim := plan.OperatorSteps()[0]
	f.exec.Faults = &scriptedInjector{stretch: map[string]float64{victim.Name: 10}}
	f.exec.TimeoutFactor = 2
	f.exec.Speculate = func(s *planner.Step) (SpeculativeChoice, bool) {
		// Same-engine relaunch on fresh containers (YARN-style speculation).
		return SpeculativeChoice{
			OpName: s.Op.Name, Engine: s.Engine, Algorithm: s.Algorithm,
			Res: s.Res, Params: s.Params,
		}, true
	}

	res, err := f.execute(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalRecords <= 0 {
		t.Fatal("workflow did not complete")
	}
	if res.SpeculativeLaunches != 1 {
		t.Fatalf("speculative launches = %d, want 1", res.SpeculativeLaunches)
	}
	if res.SpeculativeWins != 1 {
		t.Fatalf("speculative wins = %d, want 1 (fresh copy should beat a 10x straggler)", res.SpeculativeWins)
	}
	if res.Replans != 0 {
		t.Fatalf("replans = %d, want 0 (speculation must not consume the replan budget)", res.Replans)
	}
	won := false
	for _, log := range res.StepLog {
		if log.Name == victim.Name && log.Speculative && !log.Failed {
			won = true
		}
	}
	if !won {
		t.Fatalf("no successful speculative run in the log: %+v", res.StepLog)
	}
	f.checkClean(t)
}

// TestSpeculationWithoutHeadroomIsDropped pins the gang-allocation rule: a
// backup copy that cannot be placed is silently skipped and the original
// keeps running.
func TestSpeculationWithoutHeadroomIsDropped(t *testing.T) {
	f := newFixture(t)
	g := chainWorkflow(t, 100_000) // large: Spark plan gangs the whole cluster
	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	victim := plan.OperatorSteps()[0]
	if victim.Res.Nodes != 16 {
		t.Skipf("precondition: expected a whole-cluster gang, got %d nodes", victim.Res.Nodes)
	}
	f.exec.Faults = &scriptedInjector{stretch: map[string]float64{victim.Name: 10}}
	f.exec.TimeoutFactor = 2
	f.exec.Speculate = func(s *planner.Step) (SpeculativeChoice, bool) {
		return SpeculativeChoice{
			OpName: s.Op.Name, Engine: s.Engine, Algorithm: s.Algorithm,
			Res: s.Res, Params: s.Params,
		}, true
	}
	res, err := f.execute(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpeculativeLaunches != 0 {
		t.Fatalf("backup launched with zero headroom: %d", res.SpeculativeLaunches)
	}
	if res.FinalRecords <= 0 {
		t.Fatal("original attempt did not complete")
	}
	f.checkClean(t)
}

// Property: under any seeded fault schedule — transients, stragglers, a node
// crash with delayed repair — execution either completes or returns a typed
// error, and the cluster is never over-allocated or leaked afterwards.
func TestQuickFaultScheduleAlwaysTerminates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fx := newFixtureSeed(t, 33)
		g := chainWorkflow(t, int64(2_000+r.Intn(10_000)))
		plan, err := fx.plnr.Plan(g)
		if err != nil {
			return true
		}
		cfg := faults.Config{
			Seed:      seed,
			Default:   faults.Transient{FailProb: r.Float64() * 0.5, MTBFSec: 200 + r.Float64()*800},
			Straggler: faults.Straggler{Prob: r.Float64() * 0.5, Factor: 2 + r.Float64()*4},
		}
		if r.Intn(2) == 0 {
			at := time.Duration(5+r.Intn(60)) * time.Second
			cfg.NodeCrashes = []faults.NodeCrash{{Node: "node3", At: at}}
			fx.clock.Schedule(at+30*time.Second, func(time.Duration) {
				_ = fx.clus.RestoreNode("node3")
			})
		}
		sched := faults.New(cfg)
		if err := sched.Arm(fx.clock, fx.env, fx.clus); err != nil {
			return false
		}
		fx.exec.Faults = sched
		fx.exec.Retry = RetryPolicy{MaxAttempts: 1 + r.Intn(4), BaseBackoff: time.Second}

		res, err := fx.execute(g, plan)
		if err != nil {
			typed := errors.Is(err, ErrTooManyReplans) ||
				errors.Is(err, ErrDeadlock) ||
				errors.Is(err, planner.ErrNoPlan)
			if !typed {
				t.Logf("seed %d: untyped error: %v", seed, err)
				return false
			}
		} else if res.FinalRecords <= 0 {
			t.Logf("seed %d: completed with no output", seed)
			return false
		}
		if err := fx.clus.CheckInvariants(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if live := fx.clus.LiveContainers(); live != 0 {
			t.Logf("seed %d: %d containers leaked", seed, live)
			return false
		}
		// The run may end before the scheduled node repair; restore health so
		// free capacity is comparable to total capacity.
		_ = fx.clus.RestoreNode("node3")
		freeC := freeCores(fx.clus)
		capC, _ := fx.clus.Capacity()
		if freeC != capC {
			t.Logf("seed %d: %d free of %d after run", seed, freeC, capC)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
