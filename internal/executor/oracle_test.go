package executor

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/planner"
)

// randomDAGPlan builds a plan of n single-container Java wordcount steps in
// which each step depends on a random subset of the earlier ones; steps
// with no dependency read the workflow source "src".
func randomDAGPlan(t *testing.T, f *fixture, r *rand.Rand, n int) *planner.Plan {
	t.Helper()
	op, ok := f.lib.Operator("wordcount_java")
	if !ok {
		t.Fatal("fixture library lacks wordcount_java")
	}
	plan := &planner.Plan{}
	for i := 0; i < n; i++ {
		s := &planner.Step{
			ID: i, Kind: planner.StepOperator,
			Name: fmt.Sprintf("s%d", i), WorkflowNode: fmt.Sprintf("s%d", i),
			Op: op, Engine: engine.EngineJava, Algorithm: engine.AlgWordcount,
			Res:    planner.Resources{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456},
			Params: op.Params(),
		}
		for dep := 0; dep < i; dep++ {
			if r.Intn(3) == 0 {
				s.DependsOn = append(s.DependsOn, dep)
			}
		}
		if len(s.DependsOn) == 0 {
			s.SourceInputs = []string{"src"}
		}
		plan.Steps = append(plan.Steps, s)
	}
	return plan
}

// TestCriticalPathOracle is Graham's bound where capacity never binds: on
// seeded random DAGs of single-container steps, with one free node per step
// and no faults, list scheduling has nothing to wait for but dependencies.
// Every step's only attempt must start at the instant its last dependency
// finishes (at the run's start for a source step), and the makespan must
// equal the latest attempt end — the critical path over the attempts'
// actual durations.
func TestCriticalPathOracle(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		f := newFixtureSeed(t, seed)
		n := 2 + r.Intn(15) // the fixture cluster has 16 single-gang nodes
		plan := randomDAGPlan(t, f, r, n)
		g := chainWorkflow(t, int64(1_000+r.Intn(20_000)))
		t0 := f.clock.Now()
		res, err := f.execute(g, plan)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.StepLog) != n {
			t.Fatalf("seed %d: %d log entries for %d steps: %+v", seed, len(res.StepLog), n, res.StepLog)
		}
		byName := map[string]StepExec{}
		for _, log := range res.StepLog {
			if log.Failed || log.Attempt != 1 || log.Speculative {
				t.Fatalf("seed %d: unexpected attempt %+v", seed, log)
			}
			byName[log.Name] = log
		}
		var latest time.Duration
		for _, s := range plan.Steps {
			log, ok := byName[s.Name]
			if !ok {
				t.Fatalf("seed %d: step %s never ran", seed, s.Name)
			}
			want := t0
			for _, dep := range s.DependsOn {
				if end := byName[plan.Steps[dep].Name].End; end > want {
					want = end
				}
			}
			if log.Start != want {
				t.Errorf("seed %d: step %s started at %v, its last dependency finished at %v", seed, s.Name, log.Start, want)
			}
			if log.End > latest {
				latest = log.End
			}
		}
		if res.Makespan != latest-t0 {
			t.Errorf("seed %d: makespan %v, latest attempt end %v", seed, res.Makespan, latest-t0)
		}
		f.checkClean(t)
	}
}
