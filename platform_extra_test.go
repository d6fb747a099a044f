package ires

import "testing"

func TestPolicyVariants(t *testing.T) {
	for _, pol := range []Policy{MinCost, Balanced} {
		p, err := NewPlatform(Options{Seed: 21, Policy: pol, ElasticProvisioning: true})
		if err != nil {
			t.Fatal(err)
		}
		registerTextOps(t, p)
		wf := textWorkflow(t, p, 20_000)
		plan, res, err := p.Run(wf)
		if err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
		if len(plan.OperatorSteps()) != 2 || res.Makespan <= 0 {
			t.Fatalf("policy %v: bad run", pol)
		}
	}
}

func TestRegisterAbstractOperatorErrors(t *testing.T) {
	p, err := NewPlatform(Options{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterAbstractOperator("bad", "no equals sign"); err == nil {
		t.Fatal("bad description accepted")
	}
	if err := p.RegisterAbstractOperator("ok", "Constraints.OpSpecification.Algorithm.name=x"); err != nil {
		t.Fatal(err)
	}
	// Registered abstract operators resolve in graph files.
	if err := p.RegisterDataset("src", "Execution.path=/src"); err != nil {
		t.Fatal(err)
	}
	g, err := p.ParseWorkflow("src,ok,0\nok,d1,0\nd1,$$target")
	if err != nil {
		t.Fatal(err)
	}
	if g.Target != "d1" {
		t.Fatalf("target = %q", g.Target)
	}
	if _, err := p.ParseWorkflow("broken graph line without commas! x"); err == nil {
		t.Fatal("bad graph accepted")
	}
}

func TestProfileUnknownOperator(t *testing.T) {
	p, err := NewPlatform(Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProfileOperator("ghost", ProfileSpace{}); err == nil {
		t.Fatal("unknown operator accepted")
	}
}

// TestAlgorithmWrappers exercises the public reference-algorithm surface.
func TestAlgorithmWrappers(t *testing.T) {
	graph := GenerateCallGraph(5_000, 3)
	rank := PageRank(graph, 10, 0.85)
	if len(rank) == 0 {
		t.Fatal("empty rank")
	}
	top := TopRanked(rank, 3)
	if len(top) != 3 {
		t.Fatal("TopRanked wrong")
	}
	corpus := GenerateCorpus(50, 30, 3)
	if CorpusSizeBytes(corpus) <= 0 {
		t.Fatal("corpus size")
	}
	vecs := TFIDF(corpus)
	dense := VectorizeTFIDF(vecs, 8)
	km, err := KMeans(dense, 3, 10, 3)
	if err != nil || len(km.Centroids) != 3 {
		t.Fatalf("KMeans: %v", err)
	}
	if len(WordCount(corpus)) == 0 {
		t.Fatal("WordCount empty")
	}
}

// TestUserFunctionCostModels verifies the paper's description-file cost
// constants (Optimization.execTime / Optimization.cost with UserFunction
// models, D3.3 §3.3) make unprofiled operators plannable.
func TestUserFunctionCostModels(t *testing.T) {
	p, err := NewPlatform(Options{Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	// Two alternatives with declared constants; no profiling at all.
	if err := p.RegisterOperator("lc_spark", `
Constraints.Engine=Spark
Constraints.OpSpecification.Algorithm.name=LineCount
Optimization.model.execTime=gr.ntua.ece.cslab.panic.core.models.UserFunction
Optimization.model.cost=gr.ntua.ece.cslab.panic.core.models.UserFunction
Optimization.execTime=9.0
Optimization.cost=9.0
`); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterOperator("lc_java", `
Constraints.Engine=Java
Constraints.OpSpecification.Algorithm.name=LineCount
Optimization.model.execTime=gr.ntua.ece.cslab.panic.core.models.UserFunction
Optimization.model.cost=gr.ntua.ece.cslab.panic.core.models.UserFunction
Optimization.execTime=2.0
Optimization.cost=2.0
`); err != nil {
		t.Fatal(err)
	}
	wf, err := p.NewWorkflow().
		DatasetWithMeta("log", "Execution.path=/log\nOptimization.documents=100\nOptimization.size=10000").
		Operator("count", "Constraints.OpSpecification.Algorithm.name=LineCount").
		Dataset("out").
		Chain("log", "count", "out").
		Target("out").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Plan(wf)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := plan.StepFor("count")
	if s.Op.Name != "lc_java" {
		t.Fatalf("declared costs ignored: chose %s\n%s", s.Op.Name, plan.Describe())
	}
	if plan.EstTimeSec != 2.0 {
		t.Fatalf("EstTimeSec = %v, want the declared 2.0", plan.EstTimeSec)
	}
}
