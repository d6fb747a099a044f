package planner

import (
	"testing"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/workflow"
)

// TestMultiOutputOperator exercises the "for out in o.getOutputs()" path of
// Algorithm 1: a splitter with two outputs feeding two independent
// consumers, all materialized by a single operator step.
func TestMultiOutputOperator(t *testing.T) {
	lib := mustLib(t, map[string]string{
		"split_spark": `
Constraints.Engine=Spark
Constraints.OpSpecification.Algorithm.name=split
Constraints.Output.number=2
Constraints.Output0.Engine.FS=HDFS
Constraints.Output1.Engine.FS=HDFS
`,
		"countA_spark": `
Constraints.Engine=Spark
Constraints.OpSpecification.Algorithm.name=countA
Constraints.Input0.Engine.FS=HDFS
`,
		"countB_spark": `
Constraints.Engine=Spark
Constraints.OpSpecification.Algorithm.name=countB
Constraints.Input0.Engine.FS=HDFS
`,
		"merge_spark": `
Constraints.Engine=Spark
Constraints.OpSpecification.Algorithm.name=merge
`,
	})
	est := stubEstimator{
		"split_spark":  {time: func(n float64) float64 { return 5 }, outFactor: 0.5},
		"countA_spark": {time: func(n float64) float64 { return 3 }, outFactor: 0.1},
		"countB_spark": {time: func(n float64) float64 { return 4 }, outFactor: 0.1},
		"merge_spark":  {time: func(n float64) float64 { return 2 }, outFactor: 1},
	}
	g := workflow.NewGraph()
	g.AddDataset("src", operator.NewDataset("src", metadata.MustParse(
		"Execution.path=hdfs:///src\nConstraints.Engine.FS=HDFS\nOptimization.documents=1000\nOptimization.size=100000")))
	g.AddOperator("split", operator.NewAbstract("split", metadata.MustParse(
		"Constraints.OpSpecification.Algorithm.name=split")))
	g.AddOperator("countA", operator.NewAbstract("countA", metadata.MustParse(
		"Constraints.OpSpecification.Algorithm.name=countA")))
	g.AddOperator("countB", operator.NewAbstract("countB", metadata.MustParse(
		"Constraints.OpSpecification.Algorithm.name=countB")))
	g.AddOperator("merge", operator.NewAbstract("merge", metadata.MustParse(
		"Constraints.OpSpecification.Algorithm.name=merge")))
	for _, d := range []string{"left", "right", "ra", "rb", "out"} {
		g.AddDataset(d, nil)
	}
	// split has TWO output datasets; each feeds its own consumer.
	for _, e := range [][2]string{
		{"src", "split"}, {"split", "left"}, {"split", "right"},
		{"left", "countA"}, {"countA", "ra"},
		{"right", "countB"}, {"countB", "rb"},
		{"ra", "merge"}, {"rb", "merge"}, {"merge", "out"},
	} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetTarget("out"); err != nil {
		t.Fatal(err)
	}

	p := newPlanner(t, lib, est)
	plan, err := p.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	// The splitter materializes once even though both outputs are consumed.
	splits := 0
	for _, s := range plan.OperatorSteps() {
		if s.WorkflowNode == "split" {
			splits++
		}
	}
	if splits != 1 {
		t.Fatalf("split materialized %d times:\n%s", splits, plan.Describe())
	}
	if len(plan.OperatorSteps()) != 4 {
		t.Fatalf("want 4 operator steps:\n%s", plan.Describe())
	}
	// Both consumers depend (directly) on the split step.
	splitStep, _ := plan.StepFor("split")
	for _, node := range []string{"countA", "countB"} {
		s, _ := plan.StepFor(node)
		found := false
		for _, dep := range s.DependsOn {
			if dep == splitStep.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s does not depend on split:\n%s", node, plan.Describe())
		}
	}
}
