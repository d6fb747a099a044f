package profiler

import (
	"testing"

	"github.com/asap-project/ires/internal/engine"
)

// TestPredictionCache verifies the Estimate memoization: one entry per
// configuration serves every target, repeated queries with identical feature
// vectors hit the cache and return identical values, while new observations
// invalidate it so refits actually change answers.
func TestPredictionCache(t *testing.T) {
	env := engine.NewDefaultEnvironment(21)
	p := newProfiler(env)
	if _, err := p.ProfileOffline("tfidf_spark", engine.EngineSpark, engine.AlgTFIDF, tfidfSpace()); err != nil {
		t.Fatal(err)
	}
	feats := map[string]float64{
		"records": 20_000, "bytes": 20_000 * 5000,
		"nodes": 16, "cores": 2, "memoryMB": 3456,
	}

	first, ok := p.Estimate("tfidf_spark", TargetExecTime, feats)
	if !ok {
		t.Fatal("estimate unavailable")
	}
	_, misses0 := p.PredictionCacheStats()
	// One entry holds every target of a configuration: the other three
	// reads of it are hits.
	for _, target := range []string{TargetCost, TargetOutRecords, TargetOutBytes} {
		if _, ok := p.Estimate("tfidf_spark", target, feats); !ok {
			t.Fatalf("%s estimate unavailable", target)
		}
	}
	om, _ := p.Models("tfidf_spark")
	om.mu.Lock()
	entries := len(om.predCache)
	om.mu.Unlock()
	if hits, misses := p.PredictionCacheStats(); hits != 3 || misses != misses0 || entries != 1 {
		t.Fatalf("four targets of one configuration: %d hits, %d misses, %d entries; want 3, %d, 1",
			hits, misses, entries, misses0)
	}
	for i := 0; i < 5; i++ {
		v, ok := p.Estimate("tfidf_spark", TargetExecTime, feats)
		if !ok || v != first {
			t.Fatalf("cached estimate diverged: %v/%v vs %v", v, ok, first)
		}
	}
	hits, misses := p.PredictionCacheStats()
	if hits < 5 {
		t.Fatalf("repeated estimates hit the cache %d times, want >=5", hits)
	}
	if misses != misses0 {
		t.Fatalf("repeated estimates missed: %d -> %d", misses0, misses)
	}

	// Different feature vector: a miss, not a stale hit.
	feats2 := map[string]float64{
		"records": 40_000, "bytes": 40_000 * 5000,
		"nodes": 16, "cores": 2, "memoryMB": 3456,
	}
	if _, ok := p.Estimate("tfidf_spark", TargetExecTime, feats2); !ok {
		t.Fatal("estimate unavailable")
	}
	if _, m := p.PredictionCacheStats(); m != misses+1 {
		t.Fatalf("distinct features should miss: misses %d -> %d", misses, m)
	}

	// Observe invalidates: the profiler generation moves and a refit may
	// change the prediction; the cache must not serve the old value blindly.
	gen := p.Gen()
	run, err := env.Execute(engine.EngineSpark, engine.AlgTFIDF,
		engine.Input{Records: 20_000, Bytes: 20_000 * 5000}, engine.StandardCluster)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Observe("tfidf_spark", run); err != nil {
		t.Fatal(err)
	}
	if p.Gen() == gen {
		t.Fatal("Observe did not bump the profiler generation")
	}
	om.mu.Lock()
	cacheLen := len(om.predCache)
	om.mu.Unlock()
	if cacheLen != 0 {
		t.Fatalf("Observe left %d stale cache entries", cacheLen)
	}
	// Post-invalidation estimates still work (recomputed, re-cached).
	v1, ok := p.Estimate("tfidf_spark", TargetExecTime, feats)
	if !ok {
		t.Fatal("post-observe estimate unavailable")
	}
	v2, ok := p.Estimate("tfidf_spark", TargetExecTime, feats)
	if !ok || v1 != v2 {
		t.Fatalf("post-observe cache inconsistent: %v vs %v", v1, v2)
	}
}

// TestPredictionCacheInfeasible checks that infeasible verdicts are cached
// too, and that the cache never converts them into stale positives.
func TestPredictionCacheInfeasible(t *testing.T) {
	env := engine.NewDefaultEnvironment(22)
	p := newProfiler(env)
	space := Space{
		Records:        []int64{10_000, 100_000, 1_000_000, 50_000_000},
		BytesPerRecord: 40,
		Params:         map[string][]float64{"iterations": {10}},
		Resources:      []engine.Resources{{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456}},
	}
	if _, err := p.ProfileOffline("pagerank_java", engine.EngineJava, engine.AlgPagerank, space); err != nil {
		t.Fatal(err)
	}
	feats := map[string]float64{"records": 60_000_000, "bytes": 60_000_000 * 40,
		"nodes": 1, "cores": 2, "memoryMB": 3456, "iterations": 10}
	for i := 0; i < 3; i++ {
		if _, ok := p.Estimate("pagerank_java", TargetExecTime, feats); ok {
			t.Fatal("infeasible configuration estimated")
		}
	}
	hits, _ := p.PredictionCacheStats()
	if hits < 2 {
		t.Fatalf("infeasible verdicts not cached: %d hits", hits)
	}
}

// TestProfilerGen covers the generation counter: offline profiling moves it,
// a read does not.
func TestProfilerGen(t *testing.T) {
	env := engine.NewDefaultEnvironment(23)
	p := newProfiler(env)
	if p.Gen() != 0 {
		t.Fatalf("fresh profiler Gen = %d", p.Gen())
	}
	if _, err := p.ProfileOffline("tfidf_spark", engine.EngineSpark, engine.AlgTFIDF, tfidfSpace()); err != nil {
		t.Fatal(err)
	}
	g1 := p.Gen()
	if g1 == 0 {
		t.Fatal("ProfileOffline did not bump Gen")
	}
	feats := map[string]float64{"records": 20_000, "bytes": 20_000 * 5000,
		"nodes": 16, "cores": 2, "memoryMB": 3456}
	p.Estimate("tfidf_spark", TargetExecTime, feats) // read-only: no bump
	if p.Gen() != g1 {
		t.Fatal("Estimate bumped Gen")
	}
}
