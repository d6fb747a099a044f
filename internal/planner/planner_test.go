package planner

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/workflow"
)

// stubOp defines the behaviour of a fake estimator for one operator.
type stubOp struct {
	time      func(records float64) float64
	outFactor float64
	feasible  func(records float64) bool
}

type stubEstimator map[string]stubOp

func (s stubEstimator) Estimates(opName string, feats map[string]float64) Estimates {
	op, ok := s[opName]
	if !ok {
		return Estimates{}
	}
	rec := feats["records"]
	if op.feasible != nil && !op.feasible(rec) {
		return Estimates{}
	}
	return Estimates{
		ExecTime: op.time(rec), Cost: op.time(rec) * feats["nodes"],
		OutRecords: rec * op.outFactor, OutBytes: feats["bytes"] * op.outFactor,
		ExecTimeOK: true, CostOK: true,
	}
}

func mustLib(t *testing.T, descs map[string]string) *operator.Library {
	t.Helper()
	lib := operator.NewLibrary()
	for name, d := range descs {
		if _, err := lib.AddOperatorDescription(name, d); err != nil {
			t.Fatal(err)
		}
	}
	return lib
}

// textWorkflow builds the paper's Figure 4 abstract workflow:
// crawlDocuments -> TF_IDF -> d1 -> kmeans -> d2($$target)
func textWorkflow(t *testing.T, docs int64) *workflow.Graph {
	t.Helper()
	g := workflow.NewGraph()
	ds := operator.NewDataset("crawlDocuments", metadata.MustParse(`
Constraints.Engine.FS=HDFS
Constraints.type=SequenceFile
Execution.path=hdfs:///crawl
`))
	ds.Meta.Set("Optimization.documents", itoa(docs))
	ds.Meta.Set("Optimization.size", itoa(docs*5000))
	if _, err := g.AddDataset("crawlDocuments", ds); err != nil {
		t.Fatal(err)
	}
	tfidf := operator.NewAbstract("TF_IDF", metadata.MustParse(`
Constraints.Input.number=1
Constraints.OpSpecification.Algorithm.name=TF_IDF
Constraints.Output.number=1
`))
	kmeans := operator.NewAbstract("kmeans", metadata.MustParse(`
Constraints.Input.number=1
Constraints.OpSpecification.Algorithm.name=kmeans
Constraints.Output.number=1
`))
	if _, err := g.AddOperator("TF_IDF", tfidf); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddOperator("kmeans", kmeans); err != nil {
		t.Fatal(err)
	}
	g.AddDataset("d1", nil)
	g.AddDataset("d2", nil)
	for _, e := range [][2]string{{"crawlDocuments", "TF_IDF"}, {"TF_IDF", "d1"}, {"d1", "kmeans"}, {"kmeans", "d2"}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetTarget("d2"); err != nil {
		t.Fatal(err)
	}
	return g
}

func itoa(n int64) string {
	var b []byte
	if n == 0 {
		return "0"
	}
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// Standard two-implementation library: mahout/Hadoop (HDFS SequenceFile)
// and WEKA/Java (local arff).
func textLib(t *testing.T) *operator.Library {
	return mustLib(t, map[string]string{
		"TF_IDF_mahout": `
Constraints.Engine=Hadoop
Constraints.OpSpecification.Algorithm.name=TF_IDF
Constraints.Input.number=1
Constraints.Output.number=1
Constraints.Input0.Engine.FS=HDFS
Constraints.Input0.type=SequenceFile
Constraints.Output0.Engine.FS=HDFS
Constraints.Output0.type=SequenceFile
`,
		"TF_IDF_weka": `
Constraints.Engine=Java
Constraints.OpSpecification.Algorithm.name=TF_IDF
Constraints.Input.number=1
Constraints.Output.number=1
Constraints.Input0.Engine.FS=LFS
Constraints.Input0.type=arff
Constraints.Output0.Engine.FS=LFS
Constraints.Output0.type=arff
`,
		"kmeans_mahout": `
Constraints.Engine=Hadoop
Constraints.OpSpecification.Algorithm.name=kmeans
Constraints.Input.number=1
Constraints.Output.number=1
Constraints.Input0.Engine.FS=HDFS
Constraints.Input0.type=SequenceFile
Constraints.Output0.Engine.FS=HDFS
Constraints.Output0.type=SequenceFile
`,
		"kmeans_weka": `
Constraints.Engine=Java
Constraints.OpSpecification.Algorithm.name=kmeans
Constraints.Input.number=1
Constraints.Output.number=1
Constraints.Input0.Engine.FS=LFS
Constraints.Input0.type=arff
Constraints.Output0.Engine.FS=LFS
Constraints.Output0.type=arff
`,
	})
}

func newPlanner(t *testing.T, lib *operator.Library, est Estimator, opts ...func(*Config)) *Planner {
	t.Helper()
	cfg := Config{Library: lib, Estimator: est}
	for _, o := range opts {
		o(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPaperFigure5SmallInput reproduces the paper's Figure 5 walkthrough:
// for a small corpus the centralized WEKA implementations win both steps,
// with a single move (HDFS SequenceFile -> local arff) inserted up front.
func TestPaperFigure5SmallInput(t *testing.T) {
	est := stubEstimator{
		"TF_IDF_mahout": {time: func(n float64) float64 { return 30 + n/1e4 }, outFactor: 0.5},
		"TF_IDF_weka":   {time: func(n float64) float64 { return 1 + n/1e3 }, outFactor: 0.5},
		"kmeans_mahout": {time: func(n float64) float64 { return 30 + n/1e4 }, outFactor: 0.1},
		"kmeans_weka":   {time: func(n float64) float64 { return 1 + n/1e3 }, outFactor: 0.1},
	}
	p := newPlanner(t, textLib(t), est)
	plan, err := p.Plan(textWorkflow(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	tf, ok := plan.StepFor("TF_IDF")
	if !ok || tf.Op.Name != "TF_IDF_weka" {
		t.Fatalf("TF_IDF materialized as %v, want weka\n%s", tf, plan.Describe())
	}
	km, ok := plan.StepFor("kmeans")
	if !ok || km.Op.Name != "kmeans_weka" {
		t.Fatalf("kmeans materialized as %v, want weka", km)
	}
	// Exactly one move: HDFS source -> local arff for weka tf-idf. The
	// weka->weka hop needs none.
	moves := 0
	for _, s := range plan.Steps {
		if s.Kind == StepMove {
			moves++
		}
	}
	if moves != 1 {
		t.Fatalf("moves = %d, want 1\n%s", moves, plan.Describe())
	}
}

// TestLargeInputPrefersDistributed flips the estimator so Hadoop wins large
// inputs; no move is needed since the source is already HDFS.
func TestLargeInputPrefersDistributed(t *testing.T) {
	est := stubEstimator{
		"TF_IDF_mahout": {time: func(n float64) float64 { return 30 + n/1e5 }, outFactor: 0.5},
		"TF_IDF_weka":   {time: func(n float64) float64 { return 1 + n/1e2 }, outFactor: 0.5},
		"kmeans_mahout": {time: func(n float64) float64 { return 30 + n/1e5 }, outFactor: 0.1},
		"kmeans_weka":   {time: func(n float64) float64 { return 1 + n/1e2 }, outFactor: 0.1},
	}
	p := newPlanner(t, textLib(t), est)
	plan, err := p.Plan(textWorkflow(t, 10_000_000))
	if err != nil {
		t.Fatal(err)
	}
	tf, _ := plan.StepFor("TF_IDF")
	if tf.Op.Name != "TF_IDF_mahout" {
		t.Fatalf("want mahout for 10M docs, got %s", tf.Op.Name)
	}
	for _, s := range plan.Steps {
		if s.Kind == StepMove {
			t.Fatalf("unexpected move in all-HDFS plan:\n%s", plan.Describe())
		}
	}
	if len(plan.Engines()) != 1 || plan.Engines()[0] != "Hadoop" {
		t.Fatalf("engines = %v", plan.Engines())
	}
}

// TestHybridPlanBeatsSingleEngine builds the Fig 12 situation: tf-idf
// cheapest centralized, k-means cheapest distributed; the optimal plan mixes
// engines and pays one move.
func TestHybridPlanBeatsSingleEngine(t *testing.T) {
	est := stubEstimator{
		"TF_IDF_mahout": {time: func(n float64) float64 { return 100 }, outFactor: 0.5},
		"TF_IDF_weka":   {time: func(n float64) float64 { return 10 }, outFactor: 0.5},
		"kmeans_mahout": {time: func(n float64) float64 { return 10 }, outFactor: 0.1},
		"kmeans_weka":   {time: func(n float64) float64 { return 100 }, outFactor: 0.1},
	}
	p := newPlanner(t, textLib(t), est)
	plan, err := p.Plan(textWorkflow(t, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	tf, _ := plan.StepFor("TF_IDF")
	km, _ := plan.StepFor("kmeans")
	if tf.Op.Name != "TF_IDF_weka" || km.Op.Name != "kmeans_mahout" {
		t.Fatalf("hybrid not chosen: %s, %s\n%s", tf.Op.Name, km.Op.Name, plan.Describe())
	}
	if len(plan.Engines()) != 2 {
		t.Fatalf("engines = %v, want 2", plan.Engines())
	}
	// Moves: source HDFS->weka local, then weka local->mahout HDFS.
	moves := 0
	for _, s := range plan.Steps {
		if s.Kind == StepMove {
			moves++
		}
	}
	if moves != 2 {
		t.Fatalf("moves = %d, want 2\n%s", moves, plan.Describe())
	}
	// Dependencies must chain: kmeans step depends on a move which depends
	// on the tf-idf step.
	if len(km.DependsOn) != 1 {
		t.Fatalf("kmeans deps = %v", km.DependsOn)
	}
	mv := plan.Steps[km.DependsOn[0]]
	if mv.Kind != StepMove || len(mv.DependsOn) != 1 || plan.Steps[mv.DependsOn[0]].ID != tf.ID {
		t.Fatalf("dependency chain broken:\n%s", plan.Describe())
	}
}

func TestUnavailableEngineExcluded(t *testing.T) {
	est := stubEstimator{
		"TF_IDF_mahout": {time: func(n float64) float64 { return 1 }, outFactor: 0.5},
		"TF_IDF_weka":   {time: func(n float64) float64 { return 100 }, outFactor: 0.5},
		"kmeans_mahout": {time: func(n float64) float64 { return 1 }, outFactor: 0.1},
		"kmeans_weka":   {time: func(n float64) float64 { return 100 }, outFactor: 0.1},
	}
	p := newPlanner(t, textLib(t), est, func(c *Config) {
		c.EngineAvailable = func(name string) bool { return name != "Hadoop" }
	})
	plan, err := p.Plan(textWorkflow(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.OperatorSteps() {
		if s.Engine == "Hadoop" {
			t.Fatalf("excluded engine used:\n%s", plan.Describe())
		}
	}
}

func TestInfeasibleConfigurationsSkipped(t *testing.T) {
	// weka infeasible beyond 10k records (OOM wall): large input must go to
	// mahout despite worse estimates.
	est := stubEstimator{
		"TF_IDF_mahout": {time: func(n float64) float64 { return 1000 }, outFactor: 0.5},
		"TF_IDF_weka": {time: func(n float64) float64 { return 1 }, outFactor: 0.5,
			feasible: func(n float64) bool { return n < 10_000 }},
		"kmeans_mahout": {time: func(n float64) float64 { return 1000 }, outFactor: 0.1},
		"kmeans_weka": {time: func(n float64) float64 { return 1 }, outFactor: 0.1,
			feasible: func(n float64) bool { return n < 10_000 }},
	}
	p := newPlanner(t, textLib(t), est)
	plan, err := p.Plan(textWorkflow(t, 1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	tf, _ := plan.StepFor("TF_IDF")
	if tf.Op.Name != "TF_IDF_mahout" {
		t.Fatalf("infeasible weka still chosen")
	}
	// kmeans input is 500k records (0.5 factor) — still infeasible for weka.
	km, _ := plan.StepFor("kmeans")
	if km.Op.Name != "kmeans_mahout" {
		t.Fatalf("infeasible weka kmeans chosen")
	}
}

func TestNoPlanError(t *testing.T) {
	est := stubEstimator{}
	p := newPlanner(t, textLib(t), est)
	_, err := p.Plan(textWorkflow(t, 1000))
	if !errors.Is(err, ErrNoPlan) {
		t.Fatalf("err = %v, want ErrNoPlan", err)
	}
}

// TestLocationAwareDP verifies the dpTable keeps one entry per tag: a more
// expensive implementation whose output sits in the right store wins when
// the downstream step is location-sensitive.
func TestLocationAwareDP(t *testing.T) {
	lib := mustLib(t, map[string]string{
		// step1 alternatives: cheap produces LFS output, pricey produces HDFS.
		"s1_cheap_lfs": `
Constraints.Engine=Java
Constraints.OpSpecification.Algorithm.name=step1
Constraints.Output0.Engine.FS=LFS
`,
		"s1_pricey_hdfs": `
Constraints.Engine=Spark
Constraints.OpSpecification.Algorithm.name=step1
Constraints.Output0.Engine.FS=HDFS
`,
		// step2 only exists on Spark and requires HDFS input.
		"s2_spark": `
Constraints.Engine=Spark
Constraints.OpSpecification.Algorithm.name=step2
Constraints.Input0.Engine.FS=HDFS
Constraints.Output0.Engine.FS=HDFS
`,
	})
	est := stubEstimator{
		"s1_cheap_lfs":   {time: func(n float64) float64 { return 3 }, outFactor: 1},
		"s1_pricey_hdfs": {time: func(n float64) float64 { return 5 }, outFactor: 1},
		"s2_spark":       {time: func(n float64) float64 { return 1 }, outFactor: 1},
	}
	g := workflow.NewGraph()
	src := operator.NewDataset("src", metadata.MustParse("Execution.path=hdfs:///src\nConstraints.Engine.FS=HDFS\nOptimization.size=2000000000\nOptimization.documents=1000"))
	g.AddDataset("src", src)
	g.AddOperator("step1", operator.NewAbstract("step1", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=step1")))
	g.AddOperator("step2", operator.NewAbstract("step2", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=step2")))
	g.AddDataset("mid", nil)
	g.AddDataset("out", nil)
	for _, e := range [][2]string{{"src", "step1"}, {"step1", "mid"}, {"mid", "step2"}, {"step2", "out"}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g.SetTarget("out")

	// Move cost is high (2GB at 100MB/s = 20s): 3 + 20 + 1 > 5 + 1.
	p := newPlanner(t, lib, est)
	plan, err := p.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := plan.StepFor("step1")
	if s1.Op.Name != "s1_pricey_hdfs" {
		t.Fatalf("location-aware choice failed:\n%s", plan.Describe())
	}
}

func TestReplanReusesIntermediates(t *testing.T) {
	est := stubEstimator{
		"TF_IDF_mahout": {time: func(n float64) float64 { return 50 }, outFactor: 0.5},
		"TF_IDF_weka":   {time: func(n float64) float64 { return 40 }, outFactor: 0.5},
		"kmeans_mahout": {time: func(n float64) float64 { return 20 }, outFactor: 0.1},
		"kmeans_weka":   {time: func(n float64) float64 { return 30 }, outFactor: 0.1},
	}
	p := newPlanner(t, textLib(t), est)
	g := textWorkflow(t, 10_000)

	// d1 already materialized on HDFS by a prior partial execution.
	done := []MaterializedIntermediate{{
		Dataset: "d1",
		Meta:    metadata.MustParse("Engine.FS=HDFS\ntype=SequenceFile"),
		Records: 5_000,
		Bytes:   25_000_000,
	}}
	plan, err := p.Replan(g, done)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.StepFor("TF_IDF"); ok {
		t.Fatalf("replan re-executed completed TF_IDF:\n%s", plan.Describe())
	}
	km, ok := plan.StepFor("kmeans")
	if !ok {
		t.Fatal("kmeans missing from replan")
	}
	if km.Op.Name != "kmeans_mahout" {
		t.Fatalf("kmeans impl = %s, want mahout (input already HDFS)", km.Op.Name)
	}
	if plan.EstTimeSec >= 50 {
		t.Fatalf("replan cost %.1f should be < full plan", plan.EstTimeSec)
	}

	if _, err := p.Replan(g, []MaterializedIntermediate{{Dataset: "nope"}}); err == nil {
		t.Fatal("unknown intermediate accepted")
	}
}

func TestTrivialTargetAlreadyMaterialized(t *testing.T) {
	// Target dataset is itself materialized: plan has zero steps.
	g := workflow.NewGraph()
	ds := operator.NewDataset("d", metadata.MustParse("Execution.path=hdfs:///d"))
	g.AddDataset("d", ds)
	g.SetTarget("d")
	p := newPlanner(t, operator.NewLibrary(), stubEstimator{})
	plan, err := p.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 0 || plan.EstObjective != 0 {
		t.Fatalf("trivial plan wrong: %s", plan.Describe())
	}
}

func TestDiamondSharedProducerNotDuplicated(t *testing.T) {
	lib := mustLib(t, map[string]string{
		"a_java":    "Constraints.Engine=Java\nConstraints.OpSpecification.Algorithm.name=a",
		"b_java":    "Constraints.Engine=Java\nConstraints.OpSpecification.Algorithm.name=b",
		"c_java":    "Constraints.Engine=Java\nConstraints.OpSpecification.Algorithm.name=c",
		"join_java": "Constraints.Engine=Java\nConstraints.OpSpecification.Algorithm.name=join\nConstraints.Input.number=2",
	})
	est := stubEstimator{
		"a_java":    {time: func(n float64) float64 { return 5 }, outFactor: 1},
		"b_java":    {time: func(n float64) float64 { return 5 }, outFactor: 1},
		"c_java":    {time: func(n float64) float64 { return 5 }, outFactor: 1},
		"join_java": {time: func(n float64) float64 { return 5 }, outFactor: 1},
	}
	g := workflow.NewGraph()
	g.AddDataset("src", operator.NewDataset("src", metadata.MustParse("Execution.path=/src\nOptimization.documents=100\nOptimization.size=1000")))
	for _, op := range []string{"a", "b", "c", "join"} {
		g.AddOperator(op, operator.NewAbstract(op, metadata.MustParse("Constraints.OpSpecification.Algorithm.name="+op)))
	}
	for _, d := range []string{"da", "db", "dc", "out"} {
		g.AddDataset(d, nil)
	}
	// src -> a -> da; da -> b -> db; da -> c -> dc; db,dc -> join -> out
	for _, e := range [][2]string{
		{"src", "a"}, {"a", "da"},
		{"da", "b"}, {"b", "db"},
		{"da", "c"}, {"c", "dc"},
		{"db", "join"}, {"dc", "join"}, {"join", "out"},
	} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g.SetTarget("out")
	p := newPlanner(t, lib, est)
	plan, err := p.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range plan.OperatorSteps() {
		counts[s.WorkflowNode]++
	}
	for op, c := range counts {
		if c != 1 {
			t.Fatalf("operator %s materialized %d times:\n%s", op, c, plan.Describe())
		}
	}
	if len(plan.OperatorSteps()) != 4 {
		t.Fatalf("want 4 operator steps:\n%s", plan.Describe())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing library accepted")
	}
	if _, err := New(Config{Library: operator.NewLibrary()}); err == nil {
		t.Fatal("missing estimator accepted")
	}
}

func TestMinCostObjective(t *testing.T) {
	// Under MinCost, the high-node plan loses even though faster
	// (stub cost = time * nodes).
	lib := mustLib(t, map[string]string{
		"x_spark": "Constraints.Engine=Spark\nConstraints.OpSpecification.Algorithm.name=x",
		"x_java":  "Constraints.Engine=Java\nConstraints.OpSpecification.Algorithm.name=x",
	})
	est := stubEstimator{
		"x_spark": {time: func(n float64) float64 { return 10 }, outFactor: 1},
		"x_java":  {time: func(n float64) float64 { return 50 }, outFactor: 1},
	}
	g := workflow.NewGraph()
	g.AddDataset("src", operator.NewDataset("src", metadata.MustParse("Execution.path=/s\nOptimization.documents=10\nOptimization.size=100")))
	g.AddOperator("x", operator.NewAbstract("x", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=x")))
	g.AddDataset("out", nil)
	g.Connect("src", "x")
	g.Connect("x", "out")
	g.SetTarget("out")

	resByEngine := func(mo *operator.Materialized, _, _ int64) Resources {
		if mo.Engine() == "Java" {
			return Resources{Nodes: 1, CoresPerN: 2, MemMBPerN: 1024}
		}
		return Resources{Nodes: 16, CoresPerN: 2, MemMBPerN: 1024}
	}

	pTime := newPlanner(t, lib, est, func(c *Config) { c.Resources = resByEngine })
	planT, err := pTime.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := planT.StepFor("x"); s.Op.Name != "x_spark" {
		t.Fatalf("MinTime chose %s", s.Op.Name)
	}

	pCost := newPlanner(t, lib, est, func(c *Config) {
		c.Objective = MinCost
		c.Resources = resByEngine
	})
	planC, err := pCost.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	// java: 50*1=50; spark: 10*16=160 -> java wins on cost.
	if s, _ := planC.StepFor("x"); s.Op.Name != "x_java" {
		t.Fatalf("MinCost chose %s", s.Op.Name)
	}
}

// Property: under MinTime, the plan's estimated time equals the sum of its
// step times (tree workflows), and is never worse than forcing any single
// engine.
func TestQuickPlanOptimality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random chain workflow of depth 2-5, two engines with random costs.
		depth := r.Intn(4) + 2
		lib := operator.NewLibrary()
		est := stubEstimator{}
		engines := []string{"Java", "Spark"}
		fses := map[string]string{"Java": "LFS", "Spark": "HDFS"}
		for d := 0; d < depth; d++ {
			alg := "op" + itoa(int64(d))
			for _, eng := range engines {
				name := alg + "_" + eng
				desc := "Constraints.Engine=" + eng +
					"\nConstraints.OpSpecification.Algorithm.name=" + alg +
					"\nConstraints.Input0.Engine.FS=" + fses[eng] +
					"\nConstraints.Output0.Engine.FS=" + fses[eng]
				if _, err := lib.AddOperatorDescription(name, desc); err != nil {
					return false
				}
				cost := float64(r.Intn(100) + 1)
				est[name] = stubOp{time: func(n float64) float64 { return cost }, outFactor: 1}
			}
		}
		g := workflow.NewGraph()
		g.AddDataset("src", operator.NewDataset("src",
			metadata.MustParse("Execution.path=/s\nConstraints.Engine.FS=HDFS\nOptimization.documents=100\nOptimization.size=1000")))
		prev := "src"
		for d := 0; d < depth; d++ {
			op := "node" + itoa(int64(d))
			g.AddOperator(op, operator.NewAbstract(op,
				metadata.MustParse("Constraints.OpSpecification.Algorithm.name=op"+itoa(int64(d)))))
			ds := "d" + itoa(int64(d))
			g.AddDataset(ds, nil)
			g.Connect(prev, op)
			g.Connect(op, ds)
			prev = ds
		}
		g.SetTarget(prev)

		p, err := New(Config{Library: lib, Estimator: est})
		if err != nil {
			return false
		}
		plan, err := p.Plan(g)
		if err != nil {
			return false
		}
		// (1) step-sum consistency
		sum := 0.0
		for _, s := range plan.Steps {
			sum += s.EstTimeSec
		}
		if diff := sum - plan.EstTimeSec; diff > 1e-6 || diff < -1e-6 {
			return false
		}
		// (2) never worse than each single-engine forced plan
		for _, eng := range engines {
			eng := eng
			pf, err := New(Config{Library: lib, Estimator: est,
				EngineAvailable: func(name string) bool { return name == eng }})
			if err != nil {
				return false
			}
			forced, err := pf.Plan(g)
			if err != nil {
				continue // single engine may be infeasible
			}
			if plan.EstObjective > forced.EstObjective+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribeContainsSteps(t *testing.T) {
	est := stubEstimator{
		"TF_IDF_mahout": {time: func(n float64) float64 { return 1 }, outFactor: 0.5},
		"TF_IDF_weka":   {time: func(n float64) float64 { return 9 }, outFactor: 0.5},
		"kmeans_mahout": {time: func(n float64) float64 { return 1 }, outFactor: 0.1},
		"kmeans_weka":   {time: func(n float64) float64 { return 9 }, outFactor: 0.1},
	}
	p := newPlanner(t, textLib(t), est)
	plan, err := p.Plan(textWorkflow(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	d := plan.Describe()
	if !strings.Contains(d, "TF_IDF/TF_IDF_mahout") || !strings.Contains(d, "plan for target d2") {
		t.Fatalf("Describe output:\n%s", d)
	}
}
