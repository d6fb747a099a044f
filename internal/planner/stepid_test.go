package planner

import (
	"testing"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/pegasus"
	"github.com/asap-project/ires/internal/workflow"
)

// assertStepIDsArePositions checks the contract on Step.ID: a step's ID is
// its index in Plan.Steps and every dependency is a smaller index.
func assertStepIDsArePositions(t *testing.T, what string, plan *Plan) {
	t.Helper()
	if len(plan.Steps) == 0 {
		t.Fatalf("%s: empty plan", what)
	}
	for i, s := range plan.Steps {
		if s.ID != i {
			t.Fatalf("%s: step %q at position %d has ID %d\n%s", what, s.Name, i, s.ID, plan.Describe())
		}
		for _, dep := range s.DependsOn {
			if dep < 0 || dep >= i {
				t.Fatalf("%s: step %d (%q) depends on step %d, not a smaller index\n%s", what, i, s.Name, dep, plan.Describe())
			}
		}
	}
}

// TestStepIDIsPosition pins Step.ID over every way the planner builds a
// plan: Plan, Replan (with a done set where the workflow has a natural one)
// and each member of the Pareto front, on the text-analytics chain, the
// diamond and a Pegasus Montage DAG.
func TestStepIDIsPosition(t *testing.T) {
	textEst := stubEstimator{
		"TF_IDF_mahout": {time: func(n float64) float64 { return 50 }, outFactor: 0.5},
		"TF_IDF_weka":   {time: func(n float64) float64 { return 40 }, outFactor: 0.5},
		"kmeans_mahout": {time: func(n float64) float64 { return 20 }, outFactor: 0.1},
		"kmeans_weka":   {time: func(n float64) float64 { return 30 }, outFactor: 0.1},
	}
	text := textWorkflow(t, 10_000)
	dg, dlib, dest := diamondGraph(t)
	montage, err := pegasus.Generate(pegasus.Montage, 50)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *workflow.Graph
		p    *Planner
		done []MaterializedIntermediate
	}{
		{"text", text, newPlanner(t, textLib(t), textEst),
			[]MaterializedIntermediate{{Dataset: "d1", Meta: metadata.MustParse("Engine.FS=HDFS\ntype=SequenceFile"), Records: 5_000, Bytes: 25_000_000}}},
		{"diamond", dg, newPlanner(t, dlib, dest), []MaterializedIntermediate{{Dataset: "da", Records: 100, Bytes: 1000}}},
		{"montage", montage, pegasusPlanner(t, montage), nil},
	}
	for _, tc := range cases {
		g := tc.g
		plan, err := tc.p.Plan(g)
		if err != nil {
			t.Fatalf("%s: Plan: %v", tc.name, err)
		}
		assertStepIDsArePositions(t, tc.name+" Plan", plan)

		replan, err := tc.p.Replan(g, tc.done)
		if err != nil {
			t.Fatalf("%s: Replan: %v", tc.name, err)
		}
		assertStepIDsArePositions(t, tc.name+" Replan", replan)

		front, err := tc.p.ParetoPlans(g)
		if err != nil {
			t.Fatalf("%s: ParetoPlans: %v", tc.name, err)
		}
		if len(front) == 0 {
			t.Fatalf("%s: empty Pareto front", tc.name)
		}
		for _, pl := range front {
			assertStepIDsArePositions(t, tc.name+" ParetoPlans", pl)
		}
	}
}
