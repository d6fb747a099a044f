package profiler

import (
	"math"
	"slices"
	"testing"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/model"
)

func fastFactories() []model.Factory {
	return []model.Factory{
		func() model.Model { return model.NewLinear() },
		func() model.Model { return model.NewKNN(3) },
		func() model.Model { return model.NewTree(8, 2) },
	}
}

func newProfiler(env *engine.Environment) *Profiler {
	p := New(env, 11)
	p.Factories = fastFactories()
	return p
}

func tfidfSpace() Space {
	return Space{
		Records:        []int64{1000, 5000, 10_000, 50_000, 100_000},
		BytesPerRecord: 5000,
		Resources: []engine.Resources{
			{Nodes: 4, CoresPerN: 2, MemMBPerN: 3456},
			{Nodes: 8, CoresPerN: 2, MemMBPerN: 3456},
			{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456},
		},
	}
}

func TestProfileOfflineAndEstimate(t *testing.T) {
	env := engine.NewDefaultEnvironment(3)
	p := newProfiler(env)

	n, err := p.ProfileOffline("tfidf_spark", engine.EngineSpark, engine.AlgTFIDF, tfidfSpace())
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 {
		t.Fatalf("successful runs = %d, want 15", n)
	}
	om, ok := p.Models("tfidf_spark")
	if !ok || om.SampleCount() != 15 {
		t.Fatal("model store wrong")
	}
	if om.ChosenFamily(TargetExecTime) == "" {
		t.Fatal("no family selected")
	}

	// Estimation close to ground truth at an interpolated point.
	feats := map[string]float64{
		"records": 20_000, "bytes": 20_000 * 5000,
		"nodes": 16, "cores": 2, "memoryMB": 3456,
	}
	est, ok := p.Estimate("tfidf_spark", TargetExecTime, feats)
	if !ok {
		t.Fatal("estimate unavailable")
	}
	truth, err := env.GroundTruthSec(engine.EngineSpark, engine.AlgTFIDF,
		engine.Input{Records: 20_000, Bytes: 20_000 * 5000}, engine.Resources{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est-truth) / truth; rel > 0.5 {
		t.Errorf("estimate %.1f vs truth %.1f (rel %.2f)", est, truth, rel)
	}

	// Cost target also modelled.
	if _, ok := p.Estimate("tfidf_spark", TargetCost, feats); !ok {
		t.Error("cost estimate unavailable")
	}
}

func TestFeasibilityWall(t *testing.T) {
	env := engine.NewDefaultEnvironment(4)
	p := newProfiler(env)
	// Java pagerank OOMs above ~11.5M edges on a 3456MB node.
	space := Space{
		Records:        []int64{10_000, 100_000, 1_000_000, 50_000_000},
		BytesPerRecord: 40,
		Params:         map[string][]float64{"iterations": {10}},
		Resources:      []engine.Resources{{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456}},
	}
	n, err := p.ProfileOffline("pagerank_java", engine.EngineJava, engine.AlgPagerank, space)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("successful runs = %d, want 3 (50M-edge run must OOM)", n)
	}
	if !p.Feasible("pagerank_java", 1_000_000) {
		t.Error("1M edges should be feasible")
	}
	if p.Feasible("pagerank_java", 60_000_000) {
		t.Error("60M edges should be infeasible")
	}
	if _, ok := p.Estimate("pagerank_java", TargetExecTime, map[string]float64{"records": 60_000_000}); ok {
		t.Error("estimate should refuse infeasible configurations")
	}
	if p.Feasible("unknown_op", 10) {
		t.Error("unknown operator reported feasible")
	}
}

func TestObserveRefinesModels(t *testing.T) {
	env := engine.NewDefaultEnvironment(5)
	p := newProfiler(env)
	p.ReselectEvery = 5

	// Sparse initial profile: only two points.
	space := Space{
		Records:        []int64{1000, 100_000},
		BytesPerRecord: 5000,
		Resources:      []engine.Resources{{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456}},
	}
	if _, err := p.ProfileOffline("tfidf_spark", engine.EngineSpark, engine.AlgTFIDF, space); err != nil {
		t.Fatal(err)
	}

	probe := map[string]float64{
		"records": 50_000, "bytes": 50_000 * 5000,
		"nodes": 16, "cores": 2, "memoryMB": 3456,
	}
	truth, _ := env.GroundTruthSec(engine.EngineSpark, engine.AlgTFIDF,
		engine.Input{Records: 50_000, Bytes: 50_000 * 5000}, engine.StandardCluster)

	relErr := func() float64 {
		est, ok := p.Estimate("tfidf_spark", TargetExecTime, probe)
		if !ok {
			t.Fatal("estimate unavailable")
		}
		return math.Abs(est-truth) / truth
	}
	before := relErr()

	// Feed 30 observed runs at varied scales.
	for i := 0; i < 30; i++ {
		recs := int64(5000 + i*3000)
		run, err := env.Execute(engine.EngineSpark, engine.AlgTFIDF,
			engine.Input{Records: recs, Bytes: recs * 5000}, engine.StandardCluster)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Observe("tfidf_spark", run); err != nil {
			t.Fatal(err)
		}
	}
	after := relErr()
	om, _ := p.Models("tfidf_spark")
	if om.SampleCount() != 32 {
		t.Fatalf("samples = %d, want 32", om.SampleCount())
	}
	if after > before+0.05 {
		t.Errorf("refinement made estimates worse: before %.3f after %.3f", before, after)
	}
	if after > 0.35 {
		t.Errorf("post-refinement error too high: %.3f", after)
	}
}

func TestObserveUnknownOperatorBootstraps(t *testing.T) {
	env := engine.NewDefaultEnvironment(6)
	p := newProfiler(env)
	run, err := env.Execute(engine.EngineJava, engine.AlgLineCount,
		engine.Input{Records: 1000, Bytes: 1e5}, engine.SingleNode)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Observe("linecount_java", run); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Estimate("linecount_java", TargetExecTime, map[string]float64{"records": 1000}); !ok {
		t.Fatal("bootstrap observation produced no model")
	}
	if got := p.Operators(); len(got) != 1 || got[0] != "linecount_java" {
		t.Fatalf("Operators = %v", got)
	}
}

func TestObserveFailedRunUpdatesWall(t *testing.T) {
	env := engine.NewDefaultEnvironment(7)
	p := newProfiler(env)
	space := Space{
		Records:        []int64{1000, 10_000},
		BytesPerRecord: 40,
		Resources:      []engine.Resources{engine.SingleNode},
	}
	if _, err := p.ProfileOffline("pr_java", engine.EngineJava, engine.AlgPagerank, space); err != nil {
		t.Fatal(err)
	}
	run, err := env.Execute(engine.EngineJava, engine.AlgPagerank,
		engine.Input{Records: 50_000_000, Bytes: 2e9}, engine.SingleNode)
	if err == nil {
		t.Fatal("expected OOM")
	}
	if err := p.Observe("pr_java", run); err != nil {
		t.Fatal(err)
	}
	if p.Feasible("pr_java", 49_000_000) {
		t.Error("wall not updated from observed failure")
	}
}

func TestProfileOfflineErrors(t *testing.T) {
	env := engine.NewDefaultEnvironment(8)
	p := newProfiler(env)
	if _, err := p.ProfileOffline("x", engine.EngineSpark, engine.AlgTFIDF, Space{}); err == nil {
		t.Fatal("empty space accepted")
	}
	// Engine OFF: every run fails.
	env.SetAvailable(engine.EngineSpark, false)
	if _, err := p.ProfileOffline("x", engine.EngineSpark, engine.AlgTFIDF, tfidfSpace()); err == nil {
		t.Fatal("profiling a dead engine should fail")
	}
}

func TestSpaceCombinations(t *testing.T) {
	s := Space{
		Records:        []int64{1, 2},
		BytesPerRecord: 10,
		Params:         map[string][]float64{"k": {4, 8}, "iterations": {3}},
		Resources:      []engine.Resources{engine.SingleNode, engine.StandardCluster},
	}
	combos := s.combinations()
	if len(combos) != 2*2*2*1 {
		t.Fatalf("combinations = %d, want 8", len(combos))
	}
	for _, c := range combos {
		if c.bytes != c.records*10 {
			t.Fatal("bytes not derived")
		}
		if c.params["iterations"] != 3 {
			t.Fatal("param missing")
		}
	}
}

// The output-size candidates are resolved by family name: the default zoo's
// first two positions, positions 0 and 5 of the lazy tests' zoo; a zoo that
// lacks either family (such as fastFactories, which has no LeastMedSq) keeps
// its whole zoo for every target.
func TestOutputFamiliesResolveByName(t *testing.T) {
	for _, tc := range []struct {
		zoo  []model.Factory
		want []int
	}{
		{model.DefaultFactories(1), []int{0, 1}},
		{lazyZoo(1), []int{0, 5}},
		{fastFactories(), nil},
		{append(fastFactories(), lazyZoo(1)...), []int{0, 8}},
	} {
		p := New(engine.NewDefaultEnvironment(1), 1)
		p.Factories = tc.zoo
		p.mu.Lock()
		got := p.zooLocked().outputs
		p.mu.Unlock()
		if !slices.Equal(got, tc.want) {
			t.Errorf("a zoo of %d families resolves the output families to %v, want %v", len(tc.zoo), got, tc.want)
		}
	}
}
