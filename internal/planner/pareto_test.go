package planner

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/workflow"
)

// costEstimator makes time and money trade off: fast engines are expensive.
type costEstimator map[string][2]float64 // op -> {time, money}

func (c costEstimator) Estimates(opName string, feats map[string]float64) Estimates {
	tc, ok := c[opName]
	if !ok {
		return Estimates{}
	}
	return Estimates{
		ExecTime: tc[0], Cost: tc[1], OutRecords: feats["records"], OutBytes: feats["bytes"],
		ExecTimeOK: true, CostOK: true,
	}
}

func TestParetoPlansTradeoff(t *testing.T) {
	est := costEstimator{
		// Fast-but-expensive vs slow-but-cheap alternatives per step.
		"TF_IDF_mahout": {10, 100},
		"TF_IDF_weka":   {50, 10},
		"kmeans_mahout": {10, 100},
		"kmeans_weka":   {50, 10},
	}
	p := newPlanner(t, textLib(t), est)
	plans, err := p.ParetoPlans(textWorkflow(t, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 2 {
		t.Fatalf("expected a front with alternatives, got %d plan(s)", len(plans))
	}
	// Mutually non-dominated and time-sorted.
	for i := 1; i < len(plans); i++ {
		if plans[i].EstTimeSec < plans[i-1].EstTimeSec {
			t.Fatal("front not sorted by time")
		}
		if plans[i].EstCost >= plans[i-1].EstCost {
			t.Fatalf("front member %d dominated (time %f cost %f after %f/%f)",
				i, plans[i].EstTimeSec, plans[i].EstCost, plans[i-1].EstTimeSec, plans[i-1].EstCost)
		}
	}
	// The endpoints must agree with the single-objective planners.
	minTimePlan, err := p.Plan(textWorkflow(t, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if plans[0].EstTimeSec > minTimePlan.EstTimeSec+1e-9 {
		t.Errorf("fastest front member (%.1f) slower than MinTime plan (%.1f)",
			plans[0].EstTimeSec, minTimePlan.EstTimeSec)
	}
	pCost := newPlanner(t, textLib(t), est, func(c *Config) { c.Objective = MinCost })
	minCostPlan, err := pCost.Plan(textWorkflow(t, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	last := plans[len(plans)-1]
	if last.EstCost > minCostPlan.EstCost+1e-9 {
		t.Errorf("cheapest front member (%.1f) pricier than MinCost plan (%.1f)",
			last.EstCost, minCostPlan.EstCost)
	}
	// Every front plan is structurally complete.
	for _, plan := range plans {
		if _, ok := plan.StepFor("TF_IDF"); !ok {
			t.Fatal("front plan missing TF_IDF step")
		}
		if _, ok := plan.StepFor("kmeans"); !ok {
			t.Fatal("front plan missing kmeans step")
		}
	}
}

func TestParetoSingleOptionCollapses(t *testing.T) {
	// With no trade-off (one impl strictly dominates), the front has one plan.
	est := costEstimator{
		"TF_IDF_mahout": {10, 10},
		"TF_IDF_weka":   {50, 50},
		"kmeans_mahout": {10, 10},
		"kmeans_weka":   {50, 50},
	}
	p := newPlanner(t, textLib(t), est)
	plans, err := p.ParetoPlans(textWorkflow(t, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 {
		t.Fatalf("expected a single-point front, got %d", len(plans))
	}
	if s, _ := plans[0].StepFor("TF_IDF"); s.Op.Name != "TF_IDF_mahout" {
		t.Fatalf("dominant implementation not chosen: %s", s.Op.Name)
	}
}

func TestParetoNoPlan(t *testing.T) {
	p := newPlanner(t, textLib(t), costEstimator{})
	if _, err := p.ParetoPlans(textWorkflow(t, 10)); err == nil {
		t.Fatal("expected ErrNoPlan")
	}
}

// Property: on random chains, every front is mutually non-dominated and its
// fastest member matches the MinTime DP optimum.
func TestQuickParetoConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		est := costEstimator{
			"TF_IDF_mahout": {float64(r.Intn(50) + 1), float64(r.Intn(50) + 1)},
			"TF_IDF_weka":   {float64(r.Intn(50) + 1), float64(r.Intn(50) + 1)},
			"kmeans_mahout": {float64(r.Intn(50) + 1), float64(r.Intn(50) + 1)},
			"kmeans_weka":   {float64(r.Intn(50) + 1), float64(r.Intn(50) + 1)},
		}
		p, err := New(Config{Library: textLibQuick(), Estimator: est})
		if err != nil {
			return false
		}
		g := textWorkflowQuick()
		plans, err := p.ParetoPlans(g)
		if err != nil {
			return false
		}
		for i := range plans {
			for j := range plans {
				if i == j {
					continue
				}
				if plans[i].EstTimeSec <= plans[j].EstTimeSec && plans[i].EstCost <= plans[j].EstCost &&
					(plans[i].EstTimeSec < plans[j].EstTimeSec || plans[i].EstCost < plans[j].EstCost) {
					return false // j dominated but kept
				}
			}
		}
		ref, err := p.Plan(g)
		if err != nil {
			return false
		}
		return plans[0].EstTimeSec <= ref.EstTimeSec+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// textLibQuick mirrors textLib without *testing.T (for quick.Check bodies).
func textLibQuick() *operator.Library {
	lib := operator.NewLibrary()
	descs := map[string]string{
		"TF_IDF_mahout": "Constraints.Engine=Hadoop\nConstraints.OpSpecification.Algorithm.name=TF_IDF\nConstraints.Input0.Engine.FS=HDFS\nConstraints.Output0.Engine.FS=HDFS",
		"TF_IDF_weka":   "Constraints.Engine=Java\nConstraints.OpSpecification.Algorithm.name=TF_IDF\nConstraints.Input0.Engine.FS=LFS\nConstraints.Output0.Engine.FS=LFS",
		"kmeans_mahout": "Constraints.Engine=Hadoop\nConstraints.OpSpecification.Algorithm.name=kmeans\nConstraints.Input0.Engine.FS=HDFS\nConstraints.Output0.Engine.FS=HDFS",
		"kmeans_weka":   "Constraints.Engine=Java\nConstraints.OpSpecification.Algorithm.name=kmeans\nConstraints.Input0.Engine.FS=LFS\nConstraints.Output0.Engine.FS=LFS",
	}
	for name, d := range descs {
		if _, err := lib.AddOperatorDescription(name, d); err != nil {
			panic(err)
		}
	}
	return lib
}

// textWorkflowQuick mirrors textWorkflow without *testing.T.
func textWorkflowQuick() *workflow.Graph {
	g := workflow.NewGraph()
	ds := operator.NewDataset("crawlDocuments", metadata.MustParse(
		"Constraints.Engine.FS=HDFS\nExecution.path=hdfs:///crawl\nOptimization.documents=10000\nOptimization.size=50000000"))
	mustOK(g.AddDataset("crawlDocuments", ds))
	mustOK(g.AddOperator("TF_IDF", operator.NewAbstract("TF_IDF",
		metadata.MustParse("Constraints.OpSpecification.Algorithm.name=TF_IDF"))))
	mustOK(g.AddOperator("kmeans", operator.NewAbstract("kmeans",
		metadata.MustParse("Constraints.OpSpecification.Algorithm.name=kmeans"))))
	mustOK(g.AddDataset("d1", nil))
	mustOK(g.AddDataset("d2", nil))
	for _, e := range [][2]string{{"crawlDocuments", "TF_IDF"}, {"TF_IDF", "d1"}, {"d1", "kmeans"}, {"kmeans", "d2"}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	if err := g.SetTarget("d2"); err != nil {
		panic(err)
	}
	return g
}

func mustOK[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
