package planner

import (
	"maps"
	"testing"
)

// countingEstimator counts the Estimates calls made into it and keeps a copy
// of the feature map of the last one per operator.
type countingEstimator struct {
	base  Estimator
	calls int
	feats map[string]map[string]float64
}

func (c *countingEstimator) Estimates(opName string, feats map[string]float64) Estimates {
	c.calls++
	if c.feats == nil {
		c.feats = make(map[string]map[string]float64)
	}
	c.feats[opName] = maps.Clone(feats)
	return c.base.Estimates(opName, feats)
}

// A candidate costs one Estimates call: a cold build makes exactly as many as
// it tried candidates (plan.finish's candidatesTried), a memo-hit Plan none.
func TestOneEstimatesCallPerCandidate(t *testing.T) {
	est := &countingEstimator{base: sparkEstimator()}
	cap := &captureTracer{}
	p := newPlanner(t, textLib(t), est, func(c *Config) { c.Tracer = cap })
	g := textWorkflow(t, 20_000)
	if _, err := p.Plan(g); err != nil {
		t.Fatal(err)
	}
	tried := cap.events[len(cap.events)-1].Fields["candidatesTried"]
	if tried == 0 || float64(est.calls) != tried {
		t.Fatalf("cold build: %d Estimates calls for %v candidates tried", est.calls, tried)
	}
	est.calls = 0
	hits := p.CacheStats().Hits
	if _, err := p.Plan(g); err != nil {
		t.Fatal(err)
	}
	if est.calls != 0 || p.CacheStats().Hits == hits {
		t.Fatalf("memo-hit Plan: %d Estimates calls, cache hits %d -> %d", est.calls, hits, p.CacheStats().Hits)
	}
}

// An operator parameter named like a base feature overrides it in the
// feature map the Estimator reads, as it overrides it in an engine run's
// parameters.
func TestOperatorParameterShadowsBaseFeature(t *testing.T) {
	lib := textLib(t)
	if _, err := lib.AddOperatorDescription("kmeans_weka", `
Constraints.Engine=Java
Constraints.OpSpecification.Algorithm.name=kmeans
Constraints.Input.number=1
Constraints.Output.number=1
Constraints.Input0.Engine.FS=LFS
Constraints.Input0.type=arff
Constraints.Output0.Engine.FS=LFS
Constraints.Output0.type=arff
Optimization.param.nodes=7
Optimization.param.k=5
`); err != nil {
		t.Fatal(err)
	}
	est := &countingEstimator{base: textEstimator()}
	p := newPlanner(t, lib, est)
	if _, err := p.Plan(textWorkflow(t, 20_000)); err != nil {
		t.Fatal(err)
	}
	got := est.feats["kmeans_weka"]
	if got["nodes"] != 7 || got["k"] != 5 || got["cores"] != 2 {
		t.Fatalf("kmeans_weka was estimated at %v, want nodes=7 from its parameter", got)
	}
	if other := est.feats["kmeans_mahout"]; other["nodes"] != 16 {
		t.Fatalf("kmeans_mahout was estimated at %v, want the provisioned nodes=16", other)
	}
}
