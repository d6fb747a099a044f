package executor

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/metrics"
)

// Property (DESIGN.md invariant): with deterministic payload sizes, the
// workflow's final output is identical whether or not an engine dies
// mid-execution — replanning changes *where* operators run, never *what*
// they produce.
func TestQuickFailureTransparentOutputs(t *testing.T) {
	f := func(seed int64) bool {
		docs := int64(2_000 + int(uint64(seed)%8_000))

		runOnce := func(inject bool) (int64, int64, bool) {
			// Fixed seed keeps profiles (and hence baseline plans)
			// comparable across the two runs.
			fx := newFixtureSeed(t, 77)
			g := chainWorkflow(t, docs)
			plan, err := fx.plnr.Plan(g)
			if err != nil {
				return 0, 0, false
			}
			if inject {
				// Kill the first step's engine once it completes.
				victim := plan.OperatorSteps()[0].Engine
				firstAlg := plan.OperatorSteps()[0].Algorithm
				fx.exec.Observer = func(op string, run *metrics.Run) {
					if run.Algorithm == firstAlg && !run.Failed {
						fx.env.SetAvailable(victim, false)
					}
				}
			}
			res, err := fx.execute(g, plan)
			if err != nil {
				return 0, 0, false
			}
			return res.FinalRecords, res.FinalBytes, true
		}

		recA, bytesA, okA := runOnce(false)
		recB, bytesB, okB := runOnce(true)
		if !okA || !okB {
			return false
		}
		return recA == recB && bytesA == bytesB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: workflows at random scales — sometimes restricted to a single
// engine — execute to completion and release the whole cluster afterwards.
func TestQuickRandomChainsComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fx := newFixture(t)
		g := chainWorkflow(t, int64(1_000+r.Intn(20_000)))
		// Half the time, force a single engine.
		if r.Intn(2) == 0 {
			eng := []string{engine.EngineJava, engine.EngineSpark}[r.Intn(2)]
			for _, other := range []string{engine.EngineJava, engine.EngineSpark} {
				fx.env.SetAvailable(other, other == eng)
			}
		}
		plan, err := fx.plnr.Plan(g)
		if err != nil {
			return true // single-engine restriction may be infeasible: fine
		}
		res, err := fx.execute(g, plan)
		if err != nil {
			return false
		}
		if res.FinalRecords <= 0 {
			return false
		}
		freeC := freeCores(fx.clus)
		capC, _ := fx.clus.Capacity()
		return freeC == capC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestReplanPreservesStepNaming double-checks that replanned steps carry
// the workflow node names the monitoring surfaces rely on.
func TestReplanPreservesStepNaming(t *testing.T) {
	fx := newFixture(t)
	g := chainWorkflow(t, 5_000)
	plan, err := fx.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	fx.env.SetAvailable(plan.OperatorSteps()[0].Engine, false)
	res, err := fx.execute(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, log := range res.StepLog {
		if !log.Failed && !strings.Contains(log.Name, "move") {
			parts := strings.SplitN(log.Name, "/", 2)
			seen[parts[0]] = true
		}
	}
	for _, node := range []string{"wc", "sort"} {
		if !seen[node] {
			t.Fatalf("workflow node %s missing from step log: %+v", node, res.StepLog)
		}
	}
}
