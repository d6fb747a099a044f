package ires

import (
	"reflect"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/executor"
	"github.com/asap-project/ires/internal/planner"
)

// referenceSpeculate is speculate as it read before it used the library's
// algorithm index: a scan of every registered operator, in name order,
// filtered by algorithm.
func referenceSpeculate(p *Platform, s *planner.Step) (executor.SpeculativeChoice, bool) {
	var (
		best  executor.SpeculativeChoice
		bestT float64
		found bool
	)
	est := libraryEstimator{prof: p.Profiler, lib: p.Library}
	for _, mo := range p.Library.Operators() {
		if mo.Algorithm() == "" || mo.Algorithm() != s.Algorithm || !p.engineUsable(mo.Engine()) {
			continue
		}
		res := p.chooseResources(mo, s.InRecords, s.InBytes)
		feats := map[string]float64{
			"records": float64(s.InRecords), "bytes": float64(s.InBytes),
			"nodes": float64(res.Nodes), "cores": float64(res.CoresPerN), "memoryMB": float64(res.MemMBPerN),
		}
		for k, v := range mo.Params() {
			feats[k] = v
		}
		e := est.Estimates(mo.Name, feats)
		if e.ExecTimeOK && (!found || e.ExecTime < bestT) {
			found, bestT = true, e.ExecTime
			best = executor.SpeculativeChoice{OpName: mo.Name, Engine: mo.Engine(), Algorithm: mo.Algorithm(), Res: res, Params: mo.Params()}
		}
	}
	return best, found
}

// TestSpeculateMatchesOperatorScan checks that speculate, which reads the
// library's algorithm index, picks what the scan over every operator picks:
// for each algorithm of a library that implements several on up to four
// engines, for no algorithm and an unknown one, at three input scales, with
// every engine usable, with Spark down, with Python's breaker tripped, and
// with both.
func TestSpeculateMatchesOperatorScan(t *testing.T) {
	p, err := NewPlatform(Options{Seed: 42, ElasticProvisioning: true, BreakerThreshold: 3, BreakerCooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	registerHelloWorldOps(t, p)
	check := func(state string) {
		t.Helper()
		for _, alg := range []string{"HelloWorld", "HelloWorld1", "HelloWorld2", "HelloWorld3", "", "PageRank"} {
			for _, records := range []int64{200, 5_000, 100_000} {
				s := &planner.Step{Algorithm: alg, InRecords: records, InBytes: records * 1_000}
				got, gotOK := p.speculate(s)
				want, wantOK := referenceSpeculate(p, s)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %q at %d records: speculate = %+v %v, the scan picks %+v %v", state, alg, records, got, gotOK, want, wantOK)
				}
				if alg == "HelloWorld2" && !gotOK {
					t.Errorf("%s: no backup for HelloWorld2, which four engines implement", state)
				}
			}
		}
	}
	check("all usable")
	p.SetEngineAvailable(EngineSpark, false)
	check("Spark down")
	p.SetEngineAvailable(EngineSpark, true)
	for i := 0; i < 3; i++ {
		p.breaker.RecordFailure(EnginePython)
	}
	if p.engineUsable(EnginePython) {
		t.Fatal("three failures did not trip Python's breaker")
	}
	check("Python tripped")
	p.SetEngineAvailable(EngineSpark, false)
	check("Spark down, Python tripped")
}
