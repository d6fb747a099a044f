package planner

import (
	"fmt"
	"testing"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/pegasus"
	"github.com/asap-project/ires/internal/workflow"
)

// sizeEstimator is always feasible: time grows with input size from a
// per-operator base, so engines trade places as data shrinks downstream.
type sizeEstimator struct{}

func (sizeEstimator) Estimates(opName string, feats map[string]float64) Estimates {
	t := 1 + float64(len(opName)%7+int(opName[len(opName)-1])%5) + feats["records"]/1e5
	return Estimates{
		ExecTime: t, Cost: t * feats["nodes"],
		OutRecords: feats["records"] * 0.8, OutBytes: feats["bytes"] * 0.8,
		ExecTimeOK: true, CostOK: true,
	}
}

// pegasusPlanner builds a planner with four engines over two stores for
// every algorithm of g — the shape of bench/e2e's plan_wide library.
func pegasusPlanner(t testing.TB, g *workflow.Graph) *Planner {
	t.Helper()
	lib := operator.NewLibrary()
	for _, alg := range pegasus.Algorithms(g) {
		for e := 0; e < 4; e++ {
			desc := fmt.Sprintf("Constraints.Engine=engine%d\nConstraints.OpSpecification.Algorithm.name=%s\n"+
				"Constraints.Input0.Engine.FS=FS%d\nConstraints.Output0.Engine.FS=FS%d\n", e, alg, e/3, e/3)
			if _, err := lib.AddOperatorDescription(fmt.Sprintf("%s_engine%d", alg, e), desc); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, err := New(Config{Library: lib, Estimator: sizeEstimator{}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlanAllocationCeilings pins what one Plan of a 100-operator Montage DAG
// over four engines allocates, memo-hit and from a flushed cache, at 1.25x
// what it measured when written (676 and 2,708; the pooled, cloning planner
// before it: 2,394 and 28,248). A regression fails here instead of waiting
// for the end-to-end benchmark's allocs_per_op.
func TestPlanAllocationCeilings(t *testing.T) {
	g, err := pegasus.Generate(pegasus.Montage, 100)
	if err != nil {
		t.Fatal(err)
	}
	p := pegasusPlanner(t, g)
	plan := func() {
		if _, err := p.Plan(g); err != nil {
			t.Fatal(err)
		}
	}
	plan()
	if got, ceiling := testing.AllocsPerRun(20, plan), 676*1.25; got > ceiling {
		t.Errorf("memo-hit Plan: %.0f allocations, ceiling %.0f", got, ceiling)
	} else {
		t.Logf("memo-hit Plan: %.0f allocations", got)
	}
	cold := func() {
		p.FlushCache()
		plan()
	}
	if got, ceiling := testing.AllocsPerRun(20, cold), 2708*1.25; got > ceiling {
		t.Errorf("post-FlushCache Plan: %.0f allocations, ceiling %.0f", got, ceiling)
	} else {
		t.Logf("post-FlushCache Plan: %.0f allocations", got)
	}
}

// TestCacheDoesNotGrowWithFreshGraphs is the regression test for a leak: the
// cache used to memoize tree renderings by tree pointer, and every
// submission parses a fresh graph, so it grew by (operators + sources)
// entries per request until the size bound flushed a perfectly valid memo.
// Now 1,000 requests on freshly built graphs must leave every cache map at
// the size the first round of requests gave it.
func TestCacheDoesNotGrowWithFreshGraphs(t *testing.T) {
	p := newPlanner(t, textLib(t), textEstimator())
	round := func() {
		done := []MaterializedIntermediate{{
			Dataset: "d1", Meta: metadata.MustParse("Engine.FS=HDFS\ntype=SequenceFile"),
			Records: 800, Bytes: 800 * 4000,
		}}
		if _, err := p.Plan(textWorkflow(t, 1000)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Replan(textWorkflow(t, 1000), done); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ParetoPlans(textWorkflow(t, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	sizes := func() map[string]int {
		c := &p.cache
		return map[string]int{
			"nodes": len(c.nodes), "leaves": len(c.leaves), "seeds": len(c.seeds), "moved": len(c.moved),
			"dependents": len(c.dependents), "matchSets": len(c.matchSets),
		}
	}
	round()
	want := sizes()
	if want["nodes"] == 0 || want["leaves"] == 0 || want["seeds"] == 0 || want["matchSets"] == 0 {
		t.Fatalf("first round cached nothing: %v", want)
	}
	for i := 0; i < 1000; i++ {
		round()
	}
	got := sizes()
	for name, n := range want {
		if got[name] != n {
			t.Errorf("cache map %s: %d entries after one round, %d after 1,001", name, n, got[name])
		}
	}
	if cs := p.CacheStats(); cs.Epoch != 0 {
		t.Errorf("cache flushed %d times", cs.Epoch)
	}
}
