package executor

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/cluster"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/metrics"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/vtime"
	"github.com/asap-project/ires/internal/workflow"
)

// truthEstimator answers from engine ground truth for operators registered
// in reg (opName -> engine/algorithm).
type truthEstimator struct {
	env *engine.Environment
	reg map[string][2]string
}

func (e truthEstimator) Estimates(opName string, feats map[string]float64) planner.Estimates {
	ea, ok := e.reg[opName]
	if !ok {
		return planner.Estimates{}
	}
	res := engine.Resources{Nodes: int(feats["nodes"]), CoresPerN: int(feats["cores"]), MemMBPerN: int(feats["memoryMB"])}
	in := engine.Input{Records: int64(feats["records"]), Bytes: int64(feats["bytes"])}
	t, err := e.env.GroundTruthSec(ea[0], ea[1], in, res)
	if err != nil {
		return planner.Estimates{}
	}
	// No output sizes: they fall back to pass-through.
	return planner.Estimates{ExecTime: t, Cost: t * res.CostRate(), ExecTimeOK: true, CostOK: true}
}

type fixture struct {
	env   *engine.Environment
	clock *vtime.Clock
	clus  *cluster.Cluster
	lib   *operator.Library
	plnr  *planner.Planner
	exec  *Executor
}

// replanAdapter wires the planner into the executor's Replanner interface.
type replanAdapter struct{ p *planner.Planner }

func (r replanAdapter) Replan(g *workflow.Graph, done []planner.MaterializedIntermediate) (*planner.Plan, error) {
	return r.p.Replan(g, done)
}

func newFixture(t *testing.T) *fixture { return newFixtureSeed(t, 21) }

func newFixtureSeed(t *testing.T, seed int64) *fixture {
	t.Helper()
	f := &fixture{
		env:   engine.NewDefaultEnvironment(seed),
		clock: vtime.NewClock(),
		lib:   operator.NewLibrary(),
	}
	f.clus = cluster.New(f.clock, 16, 2, 3456)
	reg := map[string][2]string{}
	add := func(name, eng, alg, fs string) {
		desc := "Constraints.Engine=" + eng +
			"\nConstraints.OpSpecification.Algorithm.name=" + alg +
			"\nConstraints.Input0.Engine.FS=" + fs +
			"\nConstraints.Output0.Engine.FS=" + fs
		if _, err := f.lib.AddOperatorDescription(name, desc); err != nil {
			t.Fatal(err)
		}
		reg[name] = [2]string{eng, alg}
	}
	add("wordcount_java", engine.EngineJava, engine.AlgWordcount, "LFS")
	add("wordcount_spark", engine.EngineSpark, engine.AlgWordcount, "HDFS")
	add("sort_java", engine.EngineJava, engine.AlgSort, "LFS")
	add("sort_spark", engine.EngineSpark, engine.AlgSort, "HDFS")

	est := truthEstimator{env: f.env, reg: reg}
	resChooser := func(mo *operator.Materialized, _, _ int64) planner.Resources {
		if mo.Engine() == engine.EngineJava {
			return planner.Resources{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456}
		}
		return planner.Resources{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456}
	}
	p, err := planner.New(planner.Config{
		Library:         f.lib,
		Estimator:       est,
		EngineAvailable: f.env.Available,
		Resources:       resChooser,
		MoveSeconds:     func(b int64) float64 { return f.env.TransferSec(b) },
	})
	if err != nil {
		t.Fatal(err)
	}
	f.plnr = p
	mon := cluster.NewMonitor(f.clus, f.env, 10*time.Second)
	mon.Start()
	f.exec = &Executor{
		Env:       f.env,
		Cluster:   f.clus,
		Clock:     f.clock,
		Monitor:   mon,
		Replanner: replanAdapter{p},
	}
	return f
}

// asParty calls run with the executor as the clock's only party, as
// Platform.Execute does.
func (f *fixture) asParty(run func() (*Result, error)) (*Result, error) {
	party := f.clock.Join()
	f.clock.Kick()
	party.Await()
	defer party.Leave()
	f.exec.Party = party
	return run()
}

func (f *fixture) execute(g *workflow.Graph, plan *planner.Plan) (*Result, error) {
	return f.asParty(func() (*Result, error) { return f.exec.Execute(g, plan) })
}

func (f *fixture) resume(g *workflow.Graph, done []planner.MaterializedIntermediate) (*Result, error) {
	return f.asParty(func() (*Result, error) { return f.exec.Resume(g, done) })
}

// chainWorkflow builds src -> wordcount -> d1 -> sort -> d2($$target).
func chainWorkflow(t *testing.T, docs int64) *workflow.Graph {
	t.Helper()
	g := workflow.NewGraph()
	src := operator.NewDataset("src", metadata.MustParse(
		"Execution.path=/data/src\nConstraints.Engine.FS=LFS"))
	src.Meta.Set("Optimization.documents", metadata.MustParse("x=1").GetDefault("y", itoa(docs)))
	src.Meta.Set("Optimization.size", itoa(docs*1000))
	g.AddDataset("src", src)
	g.AddOperator("wc", operator.NewAbstract("wc", metadata.MustParse(
		"Constraints.OpSpecification.Algorithm.name="+engine.AlgWordcount)))
	g.AddOperator("sort", operator.NewAbstract("sort", metadata.MustParse(
		"Constraints.OpSpecification.Algorithm.name="+engine.AlgSort)))
	g.AddDataset("d1", nil)
	g.AddDataset("d2", nil)
	for _, e := range [][2]string{{"src", "wc"}, {"wc", "d1"}, {"d1", "sort"}, {"sort", "d2"}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g.SetTarget("d2")
	return g
}

// freeCores sums the free cores over healthy nodes.
func freeCores(c *cluster.Cluster) int {
	free := 0
	for _, n := range c.Snapshot() {
		if n.Healthy() {
			free += n.FreeCores()
		}
	}
	return free
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestExecuteChain(t *testing.T) {
	f := newFixture(t)
	g := chainWorkflow(t, 10_000)
	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	var observed []string
	f.exec.Observer = func(op string, run *metrics.Run) { observed = append(observed, op) }

	res, err := f.execute(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if res.Replans != 0 {
		t.Fatalf("unexpected replans: %d", res.Replans)
	}
	if res.FinalRecords <= 0 || res.FinalBytes <= 0 {
		t.Fatalf("final output not tracked: %d/%d", res.FinalRecords, res.FinalBytes)
	}
	if len(observed) != len(plan.OperatorSteps()) {
		t.Fatalf("observer called %d times, want %d", len(observed), len(plan.OperatorSteps()))
	}
	if res.TotalCostUnits <= 0 {
		t.Fatal("cost not accumulated")
	}
	// Makespan should be within noise of the plan estimate (truth-based
	// estimator).
	est := time.Duration(plan.EstTimeSec * float64(time.Second))
	if res.Makespan > est*2 || res.Makespan < est/2 {
		t.Fatalf("makespan %v far from estimate %v", res.Makespan, est)
	}
	// All containers returned.
	freeC := freeCores(f.clus)
	capC, _ := f.clus.Capacity()
	if freeC != capC {
		t.Fatalf("containers leaked: %d free of %d", freeC, capC)
	}
}

// parallelBranches builds two independent wordcounts over docsA and docsB
// documents feeding a sort (join-like).
func parallelBranches(t *testing.T, docsA, docsB int) *workflow.Graph {
	t.Helper()
	g := workflow.NewGraph()
	for _, s := range []struct {
		name string
		docs int
	}{{"srcA", docsA}, {"srcB", docsB}} {
		d := operator.NewDataset(s.name, metadata.MustParse("Execution.path=/"+s.name+"\nConstraints.Engine.FS=HDFS"))
		d.Meta.Set("Optimization.documents", strconv.Itoa(s.docs))
		d.Meta.Set("Optimization.size", strconv.Itoa(s.docs*1000))
		g.AddDataset(s.name, d)
	}
	g.AddOperator("wcA", operator.NewAbstract("wcA", metadata.MustParse("Constraints.OpSpecification.Algorithm.name="+engine.AlgWordcount)))
	g.AddOperator("wcB", operator.NewAbstract("wcB", metadata.MustParse("Constraints.OpSpecification.Algorithm.name="+engine.AlgWordcount)))
	g.AddOperator("merge", operator.NewAbstract("merge", metadata.MustParse("Constraints.OpSpecification.Algorithm.name="+engine.AlgSort)))
	g.AddDataset("dA", nil)
	g.AddDataset("dB", nil)
	g.AddDataset("out", nil)
	for _, e := range [][2]string{{"srcA", "wcA"}, {"wcA", "dA"}, {"srcB", "wcB"}, {"wcB", "dB"},
		{"dA", "merge"}, {"dB", "merge"}, {"merge", "out"}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g.SetTarget("out")
	return g
}

func TestParallelBranchesOverlap(t *testing.T) {
	f := newFixture(t)
	// Small inputs: each branch lands on Java (one container), so the
	// branches can genuinely overlap on the 16-node cluster.
	g := parallelBranches(t, 5000, 5000)

	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.execute(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, log := range res.StepLog {
		sum += log.End - log.Start
	}
	// With 2 Java branches (1 node each) or mixed placement, branches must
	// overlap: makespan strictly below the serial sum.
	if res.Makespan >= sum {
		t.Fatalf("no parallelism: makespan %v vs serial %v", res.Makespan, sum)
	}
}

func TestFailureTriggersReplanToOtherEngine(t *testing.T) {
	f := newFixture(t)
	g := chainWorkflow(t, 5_000) // small: Java preferred
	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	if eng := plan.OperatorSteps()[0].Engine; eng != engine.EngineJava {
		t.Fatalf("precondition: expected Java plan, got %s", eng)
	}
	// Kill Java before execution starts.
	f.env.SetAvailable(engine.EngineJava, false)

	res, err := f.execute(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replans != 1 {
		t.Fatalf("replans = %d, want 1", res.Replans)
	}
	for _, log := range res.StepLog {
		if !log.Failed && log.Engine == engine.EngineJava {
			t.Fatal("step ran on dead engine")
		}
	}
	if res.FinalRecords <= 0 {
		t.Fatal("workflow did not complete after replan")
	}
	if res.ReplanTime <= 0 {
		t.Fatal("replanning time not recorded")
	}
}

func TestMidWorkflowFailureReusesIntermediates(t *testing.T) {
	f := newFixture(t)
	g := chainWorkflow(t, 5_000)
	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	// Kill Java right after the first operator completes: watch for the wc
	// step's completion via an observer, then flip availability.
	f.exec.Observer = func(op string, run *metrics.Run) {
		if strings.HasPrefix(op, "wordcount") && !run.Failed {
			f.env.SetAvailable(engine.EngineJava, false)
		}
	}
	res, err := f.execute(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replans != 1 {
		t.Fatalf("replans = %d, want 1", res.Replans)
	}
	// wordcount must have run exactly once (intermediate d1 reused).
	wcRuns := 0
	for _, run := range res.Runs {
		if strings.HasPrefix(run.Operator, "wordcount") && !run.Failed {
			wcRuns++
		}
	}
	if wcRuns != 1 {
		t.Fatalf("wordcount executed %d times, want 1 (intermediates discarded?)", wcRuns)
	}
	// The sort must have completed on Spark.
	done := false
	for _, log := range res.StepLog {
		if strings.HasPrefix(log.Name, "sort") && !log.Failed && log.Engine == engine.EngineSpark {
			done = true
		}
	}
	if !done {
		t.Fatalf("sort never completed on Spark:\n%+v", res.StepLog)
	}
}

func TestNoReplannerFatal(t *testing.T) {
	f := newFixture(t)
	f.exec.Replanner = nil
	g := chainWorkflow(t, 5_000)
	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	f.env.SetAvailable(engine.EngineJava, false)
	if _, err := f.execute(g, plan); err == nil {
		t.Fatal("failure without replanner should be fatal")
	}
}

// stuckReplanner always returns the same failing plan.
type stuckReplanner struct{ plan *planner.Plan }

func (s stuckReplanner) Replan(*workflow.Graph, []planner.MaterializedIntermediate) (*planner.Plan, error) {
	return s.plan, nil
}

func TestMaxReplans(t *testing.T) {
	f := newFixture(t)
	g := chainWorkflow(t, 5_000)
	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	f.env.SetAvailable(engine.EngineJava, false)
	f.exec.Replanner = stuckReplanner{plan}
	res, err := f.execute(g, plan)
	if !errors.Is(err, ErrTooManyReplans) {
		t.Fatalf("err = %v, want ErrTooManyReplans", err)
	}
	// Five replans run; the sixth failure exceeds the bound.
	if res.Replans != maxReplans+1 {
		t.Fatalf("replans = %d, want %d", res.Replans, maxReplans+1)
	}
}

func TestDeadlockDetected(t *testing.T) {
	f := newFixture(t)
	g := chainWorkflow(t, 5_000)
	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the cluster so no step can ever be placed.
	f.exec.Cluster = cluster.New(f.clock, 1, 1, 128)
	_, err = f.execute(g, plan)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestMissingDependencies(t *testing.T) {
	f := newFixture(t)
	if _, err := (&Executor{}).Execute(nil, nil); err == nil {
		t.Fatal("nil wiring accepted")
	}
	_ = f
}
