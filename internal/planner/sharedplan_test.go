package planner

import (
	"reflect"
	"strings"
	"testing"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/workflow"
)

// A warm plan is served from the slot of the entry it was extracted from
// (extract.go). These tests hold every served plan to a cold planner's, and
// check that the slot is reached where it should be: the steps of a served
// plan are the very steps of the plan that filled the slot.

// twinLib and twinEstimator implement the operators of twins.
func twinLib(t *testing.T) *operator.Library {
	return mustLib(t, map[string]string{
		"a_java":    "Constraints.Engine=Java\nConstraints.OpSpecification.Algorithm.name=a\nConstraints.Input0.Engine.FS=LFS\nConstraints.Output0.Engine.FS=LFS",
		"join_java": "Constraints.Engine=Java\nConstraints.OpSpecification.Algorithm.name=join\nConstraints.Input.number=2",
	})
}

func twinEstimator() stubEstimator {
	return stubEstimator{
		"a_java":    {time: func(float64) float64 { return 5 }, outFactor: 1},
		"join_java": {time: func(float64) float64 { return 7 }, outFactor: 1},
	}
}

// sameSteps reports whether a and b share their steps: one was served from
// the slot the other filled.
func sameSteps(a, b *Plan) bool {
	return len(a.Steps) > 0 && len(a.Steps) == len(b.Steps) && &a.Steps[0] == &b.Steps[0]
}

// equalsCold fails unless plan equals, in every field but PlanningTime and
// in every field of every Step, what a cold planner over lib and est plans
// for g.
func equalsCold(t *testing.T, what string, plan *Plan, lib *operator.Library, est Estimator, g *workflow.Graph) {
	t.Helper()
	cold, err := newPlanner(t, lib, est).Plan(g)
	if err != nil {
		t.Fatalf("%s: cold plan: %v", what, err)
	}
	equalPlans(t, what, plan, cold)
}

// equalPlans fails unless got and want agree in every field but
// PlanningTime, every Step compared field by field.
func equalPlans(t *testing.T, what string, got, want *Plan) {
	t.Helper()
	g, w := *got, *want
	g.PlanningTime, w.PlanningTime = 0, 0
	g.Steps, w.Steps = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: plan %+v, cold %+v", what, g, w)
	}
	if len(got.Steps) != len(want.Steps) {
		t.Fatalf("%s: %d steps, cold %d:\n%s\ncold:\n%s", what, len(got.Steps), len(want.Steps), got.Describe(), want.Describe())
	}
	for i := range got.Steps {
		if !reflect.DeepEqual(*got.Steps[i], *want.Steps[i]) {
			t.Errorf("%s: step %d is %+v, cold %+v", what, i, *got.Steps[i], *want.Steps[i])
		}
	}
}

// namesOnly fails unless every name plan reports — step, operator node,
// output dataset, source — carries prefix.
func namesOnly(t *testing.T, plan *Plan, prefix string) {
	t.Helper()
	check := func(field, name string) {
		if !strings.HasPrefix(name, prefix) && !strings.HasPrefix(name, "move->"+prefix) {
			t.Errorf("plan of the %q graph names %s %q:\n%s", prefix, field, name, plan.Describe())
		}
	}
	check("target", plan.Target)
	for _, s := range plan.Steps {
		check("step", s.Name)
		if s.Kind == StepOperator {
			check("node", s.WorkflowNode)
			check("output", s.OutDataset)
		}
		for _, src := range s.SourceInputs {
			check("source", src)
		}
	}
}

// Two graphs of one shape under different names share every node result,
// so both reach the same target entry. Planned alternately, each plan names
// only its own graph's nodes, and a graph planned twice in a row is served
// its own earlier steps.
func TestSharedPlanNamesItsOwnGraph(t *testing.T) {
	lib, est := twinLib(t), twinEstimator()
	p := newPlanner(t, lib, est)
	graphs := map[string]*workflow.Graph{"a_": twins(t, "a_"), "b_": twins(t, "b_")}
	last := map[string]*Plan{}
	for round := 0; round < 3; round++ {
		for _, prefix := range []string{"a_", "b_"} {
			plan, err := p.Plan(graphs[prefix])
			if err != nil {
				t.Fatal(err)
			}
			namesOnly(t, plan, prefix)
			equalsCold(t, prefix, plan, lib, est, graphs[prefix])
			last[prefix] = plan
		}
	}
	if sameSteps(last["a_"], last["b_"]) {
		t.Error("two graphs share steps")
	}
	// Planned twice in a row, a graph is served from the slot.
	a1, _ := p.Plan(graphs["a_"])
	a2, _ := p.Plan(graphs["a_"])
	if !sameSteps(a1, a2) {
		t.Error("a warm plan of the same graph was extracted again")
	}
	if cs := p.CacheStats(); cs.Misses != 2 {
		t.Errorf("%d misses, want 2: every build after the first is warm", cs.Misses)
	}
}

// In twins, left and right compute the same thing, so dl and dr hold one row
// and the target entry is the same whichever is the target. Switching the
// target between them, each plan names its own branch.
func TestSharedPlanTwinTargets(t *testing.T) {
	lib, est := twinLib(t), twinEstimator()
	p := newPlanner(t, lib, est)
	g := twins(t, "")
	for round := 0; round < 3; round++ {
		for _, tc := range []struct{ target, node, src string }{{"dl", "left", "src1"}, {"dr", "right", "src2"}} {
			if err := g.SetTarget(tc.target); err != nil {
				t.Fatal(err)
			}
			plan, err := p.Plan(g)
			if err != nil {
				t.Fatal(err)
			}
			want := "plan for target " + tc.target + ": est time 6.5s, est cost 81.5 (objective 6.50)\n" +
				"  [0] move move->" + tc.node + " (1.5s) reads [" + tc.src + "]\n" +
				"  [1] " + tc.node + "/a_java on Java (5.0s) after [0]\n"
			if got := plan.Describe(); got != want {
				t.Fatalf("round %d, target %s:\n%s\nwant:\n%s", round, tc.target, got, want)
			}
			equalsCold(t, tc.target, plan, lib, est, g)
		}
	}
}

// A graph changed after it was planned is planned as a cold planner plans
// it. A node added with no edge and a consumer added off the target's path
// leave the target entry as it was, so its slot still serves the plan; an
// input added to an operator on the path changes that operator's key, so
// the target entry is new and the plan extracted again.
func TestSharedPlanAfterGraphEdits(t *testing.T) {
	lib, est := twinLib(t), twinEstimator()
	p := newPlanner(t, lib, est)
	g := twins(t, "")
	prev, err := p.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	source := func(name string) *operator.Dataset {
		return operator.NewDataset(name, metadata.MustParse(
			"Execution.path=/"+name+"\nConstraints.Engine.FS=HDFS\nOptimization.documents=300\nOptimization.size=3000"))
	}
	for _, edit := range []struct {
		name   string
		apply  func() error
		served bool
	}{
		{"unconnected node", func() error {
			_, err := g.AddDataset("lonely", source("lonely"))
			return err
		}, true},
		{"new consumer", func() error {
			if _, err := g.AddOperator("tap", operator.NewAbstract("tap", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=a"))); err != nil {
				return err
			}
			if _, err := g.AddDataset("tapped", nil); err != nil {
				return err
			}
			if err := g.Connect("dl", "tap"); err != nil {
				return err
			}
			return g.Connect("tap", "tapped")
		}, true},
		{"extra input", func() error {
			if _, err := g.AddDataset("src3", source("src3")); err != nil {
				return err
			}
			return g.Connect("src3", "right")
		}, false},
	} {
		if err := edit.apply(); err != nil {
			t.Fatalf("%s: %v", edit.name, err)
		}
		plan, err := p.Plan(g)
		if err != nil {
			t.Fatalf("%s: %v", edit.name, err)
		}
		equalsCold(t, edit.name, plan, lib, est, g)
		if sameSteps(plan, prev) != edit.served {
			t.Errorf("%s: served from the slot %v, want %v", edit.name, !edit.served, edit.served)
		}
		prev = plan
	}
	if step, _ := prev.StepFor("right"); step == nil || !reflect.DeepEqual(step.SourceInputs, []string{"src3"}) {
		t.Fatalf("the extra input is not read:\n%s", prev.Describe())
	}
}

// Replan and the members of a warm Pareto front are served from their
// entries' slots too, and equal a cold planner's.
func TestSharedPlanReplanAndPareto(t *testing.T) {
	lib, est := textLib(t), textEstimator()
	p := newPlanner(t, lib, est)
	g := textWorkflow(t, 1_000_000)
	done := []MaterializedIntermediate{{
		Dataset: "d1", Meta: metadata.MustParse("Engine.FS=HDFS\ntype=SequenceFile"),
		Records: 800, Bytes: 800 * 4000,
	}}
	first, err := p.Replan(g, done)
	if err != nil {
		t.Fatal(err)
	}
	again, err := p.Replan(g, done)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSteps(first, again) {
		t.Error("a warm Replan was extracted again")
	}
	cold, err := newPlanner(t, lib, est).Replan(g, done)
	if err != nil {
		t.Fatal(err)
	}
	equalPlans(t, "replan", again, cold)

	// Fast engines are expensive here, so the front has several members.
	tradeoff := costEstimator{
		"TF_IDF_mahout": {10, 100}, "TF_IDF_weka": {50, 10},
		"kmeans_mahout": {10, 100}, "kmeans_weka": {50, 10},
	}
	p = newPlanner(t, lib, tradeoff)
	front, err := p.ParetoPlans(g)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := p.ParetoPlans(g)
	if err != nil {
		t.Fatal(err)
	}
	coldFront, err := newPlanner(t, lib, tradeoff).ParetoPlans(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != len(coldFront) || len(warm) != len(front) || len(warm) < 2 {
		t.Fatalf("fronts of %d, %d and %d plans; want one size, at least 2", len(front), len(warm), len(coldFront))
	}
	for i := range warm {
		if !sameSteps(front[i], warm[i]) {
			t.Errorf("warm Pareto member %d was extracted again", i)
		}
		equalPlans(t, "pareto member", warm[i], coldFront[i])
	}
}
