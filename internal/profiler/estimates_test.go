package profiler

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/asap-project/ires/internal/engine"
)

// referenceEstimates is the cache-free oracle of Profiler.Estimates: it
// builds the feature vector and calls each target's Predict directly, as one
// Estimate call per target did before the targets shared one cache entry.
func referenceEstimates(om *OperatorModels, feats map[string]float64) Estimates {
	om.mu.Lock()
	defer om.mu.Unlock()
	_ = om.fitLocked()
	one := func(target string) (float64, bool) {
		m, ok := om.models[target]
		if !ok || !om.feasibleLocked(feats["records"]) {
			return 0, false
		}
		x := make([]float64, len(om.Features))
		for i, f := range om.Features {
			x[i] = feats[f]
		}
		v := m.Predict(x)
		if v < 0 {
			v = 0
		}
		return v, true
	}
	var e Estimates
	var timeOK, recordsOK, bytesOK bool
	e.ExecTime, timeOK = one(TargetExecTime)
	e.OutRecords, recordsOK = one(TargetOutRecords)
	e.OutBytes, bytesOK = one(TargetOutBytes)
	e.OK = timeOK && recordsOK && bytesOK
	e.Cost = engine.CostRate(feats["nodes"], feats["cores"], feats["memoryMB"]) * e.ExecTime
	return e
}

// read is one estimate as compared: its bits and its verdict.
func read(v float64, ok bool) [2]uint64 {
	if ok {
		return [2]uint64{math.Float64bits(v), 1}
	}
	return [2]uint64{math.Float64bits(v), 0}
}

// targetReads are the per-target views of one Estimates, as Profiler.Estimate
// must return them.
func targetReads(e Estimates) map[string][2]uint64 {
	return map[string][2]uint64{
		TargetExecTime:   read(e.ExecTime, e.OK),
		TargetCost:       read(e.Cost, e.OK),
		TargetOutRecords: read(e.OutRecords, e.OK),
		TargetOutBytes:   read(e.OutBytes, e.OK),
	}
}

// checkEstimates compares, bit for bit, a cold and a warm Estimates call and
// each per-target Estimate of every operator of p with the reference at
// feats. Only the first call may miss the prediction cache: every other read
// of the same configuration is a hit of the same entry.
func checkEstimates(t testing.TB, step string, p *Profiler, feats map[string]float64) {
	t.Helper()
	for _, op := range p.Operators() {
		om, _ := p.Models(op)
		got, ok := p.Estimates(op, feats)
		if !ok {
			t.Fatalf("%s: %s: profiled operator reads as unprofiled", step, op)
		}
		_, misses := om.PredictionCacheStats()
		want := targetReads(referenceEstimates(om, feats))
		again, _ := p.Estimates(op, feats)
		for name, e := range map[string]Estimates{"cold": got, "warm": again} {
			for target, r := range targetReads(e) {
				if r != want[target] {
					t.Fatalf("%s: %s %s %s at %v: %x/%d, reference %x/%d",
						step, op, name, target, feats, r[0], r[1], want[target][0], want[target][1])
				}
			}
		}
		for target, w := range want {
			if r := read(p.Estimate(op, target, feats)); r != w {
				t.Fatalf("%s: %s Estimate(%s) at %v: %x/%d, reference %x/%d", step, op, target, feats, r[0], r[1], w[0], w[1])
			}
		}
		if _, m := om.PredictionCacheStats(); m != misses {
			t.Fatalf("%s: %s: reads of one configuration missed %d times after the first", step, op, m-misses)
		}
	}
	if _, ok := p.Estimates("never_profiled", feats); ok {
		t.Fatalf("%s: an unprofiled operator reads as profiled", step)
	}
}

// estimateProbes are the feature maps every state is read at: lazyProbes'
// grid, the resources alone moved (the cost is all that changes), a
// parameter value that shadows the "nodes" feature, the records alone moved
// across a wall, maps with keys missing, NaN, -0 and negative values, and
// 9*10^18 records, far past every profiled scale.
func estimateProbes() []map[string]float64 {
	probes := lazyProbes()
	for _, res := range [][3]float64{{3, 2, 3456}, {7, 4, 1024}, {7, 2, 3456}} {
		probes = append(probes, map[string]float64{
			"records": 20_000, "bytes": 20_000 * 5000, "nodes": res[0], "cores": res[1], "memoryMB": res[2],
		})
	}
	return append(probes,
		map[string]float64{},
		map[string]float64{"records": math.NaN(), "bytes": math.Copysign(0, -1), "nodes": 4, "cores": 2, "memoryMB": 3456},
		map[string]float64{"records": -1_000, "bytes": -1e5, "nodes": -4, "cores": 2, "memoryMB": 3456, "k": -5},
		map[string]float64{"records": 5e6, "bytes": -1e5, "nodes": -4, "cores": 2, "memoryMB": 3456},
		map[string]float64{"records": 90_000, "bytes": 20_000 * 5000, "nodes": 7, "cores": 2, "memoryMB": 3456},
		map[string]float64{"records": 9e18, "bytes": 9e18, "nodes": 16, "cores": 2, "memoryMB": 3456},
	)
}

// walkEstimateStates drives a profiler through every state the prediction
// cache has to follow, calling visit after each step, and returns it as the
// walk left it: offline profiling, observations with deferred fits and
// re-selections, a failure that moves the feasibility wall, feature-set
// growth, a parameter named like a base feature and ResetPredictionCaches.
func walkEstimateStates(tb testing.TB, visit func(step string, p *Profiler)) *Profiler {
	tb.Helper()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	p := lazyProfiler(31)
	_, err := p.ProfileOffline("tfidf_spark", engine.EngineSpark, engine.AlgTFIDF, tfidfSpace())
	must(err)
	visit("ProfileOffline", p)

	for i := int64(1); i <= 12; i++ {
		must(p.Observe("op", obsRun(i*7_000, 1.5*float64(i)+float64(i%3), nil)))
		if i%3 == 0 {
			visit(fmt.Sprintf("Observe %d", i), p)
		}
	}
	failed := obsRun(40_000, 0, nil)
	failed.Failed = true
	must(p.Observe("op", failed))
	visit("feasibility wall", p)
	must(p.Observe("op", obsRun(30_000, 11, map[string]float64{"k": 5})))
	visit("feature growth", p)

	shadow := tfidfSpace()
	shadow.Params = map[string][]float64{"nodes": {3, 7}}
	_, err = p.ProfileOffline("tfidf_shadow", engine.EngineSpark, engine.AlgTFIDF, shadow)
	must(err)
	visit("parameter named nodes", p)

	p.ResetPredictionCaches()
	visit("ResetPredictionCaches", p)
	return p
}

// The combined call and every per-target read agree bit for bit with the
// cache-free reference in every state the cache has to follow.
func TestEstimatesMatchReference(t *testing.T) {
	walkEstimateStates(t, func(step string, p *Profiler) {
		for _, feats := range estimateProbes() {
			checkEstimates(t, step, p, feats)
		}
	})
}

// FuzzEstimates holds the combined call and the per-target reads to the
// reference on feature maps nobody wrote down, over the profiler the walk
// leaves behind (its caches fill and overflow across inputs).
func FuzzEstimates(f *testing.F) {
	for _, feats := range estimateProbes() {
		f.Add(feats["records"], feats["bytes"], feats["nodes"], feats["cores"], feats["memoryMB"], feats["k"])
	}
	var (
		once sync.Once
		p    *Profiler
	)
	f.Fuzz(func(t *testing.T, records, bytes, nodes, cores, memoryMB, k float64) {
		once.Do(func() { p = walkEstimateStates(t, func(string, *Profiler) {}) })
		feats := map[string]float64{
			"records": records, "bytes": bytes, "nodes": nodes, "cores": cores, "memoryMB": memoryMB, "k": k,
		}
		checkEstimates(t, "fuzz", p, feats)
	})
}
