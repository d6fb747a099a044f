package ires

import (
	"math"
	"strings"
	"testing"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/metrics"
	"github.com/asap-project/ires/internal/model"
	"github.com/asap-project/ires/internal/planner"
)

// lineCountOp declares a Spark LineCount operator with the given extra
// description lines (declared Optimization constants).
func lineCountOp(t *testing.T, p *Platform, name, extra string) {
	t.Helper()
	if err := p.RegisterOperator(name, "Constraints.Engine=Spark\nConstraints.OpSpecification.Algorithm.name=LineCount\n"+extra); err != nil {
		t.Fatal(err)
	}
}

// estimatorFeats is one configuration of the default cluster.
func estimatorFeats(records float64) map[string]float64 {
	return map[string]float64{"records": records, "bytes": records * 100, "nodes": 16, "cores": 2, "memoryMB": 3456}
}

// libraryEstimator's three branches: an unprofiled operator answers with its
// declared constants; a profiled one answers from its models alone, so beyond
// its feasibility wall the constants do not override the verdict; and a
// profiled operator without an output-size model reports no size, so the
// planner keeps the input's.
func TestLibraryEstimatorBranches(t *testing.T) {
	p, err := NewPlatform(Options{Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	p.Profiler.Factories = []model.Factory{func() model.Model { return model.NewLinear() }}
	est := libraryEstimator{prof: p.Profiler, lib: p.Library}

	lineCountOp(t, p, "lc_declared", "Optimization.execTime=9.0\nOptimization.cost=4.5\n")
	lineCountOp(t, p, "lc_time_only", "Optimization.execTime=3.0\n")
	for op, want := range map[string]planner.Estimates{
		"lc_declared":  {ExecTime: 9, Cost: 4.5, ExecTimeOK: true, CostOK: true},
		"lc_time_only": {ExecTime: 3, ExecTimeOK: true},
		"lc_unknown":   {},
	} {
		if got := est.Estimates(op, estimatorFeats(1000)); got != want {
			t.Errorf("unprofiled %s: %+v, want %+v", op, got, want)
		}
	}

	lineCountOp(t, p, "lc_profiled", "Optimization.execTime=9.0\nOptimization.cost=4.5\n")
	space := ProfileSpace{
		Records:        []int64{1_000, 10_000, 100_000},
		BytesPerRecord: 100,
		Resources:      []engine.Resources{{Nodes: 8, CoresPerN: 2, MemMBPerN: 3456}, {Nodes: 16, CoresPerN: 2, MemMBPerN: 3456}},
	}
	if _, err := p.ProfileOperator("lc_profiled", space); err != nil {
		t.Fatal(err)
	}
	feasible := est.Estimates("lc_profiled", estimatorFeats(5_000))
	pe, _ := p.Profiler.Estimates("lc_profiled", estimatorFeats(5_000))
	if !feasible.ExecTimeOK || !feasible.CostOK || feasible.ExecTime != pe.ExecTime || feasible.Cost != pe.Cost ||
		feasible.OutRecords != pe.OutRecords || feasible.OutBytes != pe.OutBytes {
		t.Fatalf("profiled: %+v, the models say %+v", feasible, pe)
	}
	if err := p.Profiler.Observe("lc_profiled", &metrics.Run{Failed: true, Params: map[string]float64{"records": 50_000}}); err != nil {
		t.Fatal(err)
	}
	if got := est.Estimates("lc_profiled", estimatorFeats(200_000)); got.ExecTimeOK || got.CostOK {
		t.Fatalf("profiled beyond its feasibility wall: %+v, want no verdict despite the declared constants", got)
	}
}

// A profiled operator without output-size models reports no size, so its plan
// step keeps the input's.
func TestLibraryEstimatorKeepsInputSizeWithoutSizeModels(t *testing.T) {
	p, err := NewPlatform(Options{Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	lineCountOp(t, p, "lc_time_model", "")
	if err := p.Profiler.Import(strings.NewReader(`{"version": 2, "operators": [{
		"operator": "lc_time_model", "algorithm": "LineCount", "engine": "Spark",
		"features": ["records", "bytes", "nodes", "cores", "memoryMB"],
		"samples": [[1000, 1e5, 16, 2, 3456], [2000, 2e5, 16, 2, 3456], [4000, 4e5, 16, 2, 3456]],
		"targets": {"execTime": [1, 2, 4]},
		"chosen": {"execTime": "LinearRegression"}}]}`)); err != nil {
		t.Fatal(err)
	}
	est := libraryEstimator{prof: p.Profiler, lib: p.Library}
	got := est.Estimates("lc_time_model", estimatorFeats(3_000))
	if !got.ExecTimeOK || math.Abs(got.ExecTime-3) > 1e-9 || got.OutRecords != 0 || got.OutBytes != 0 {
		t.Fatalf("profiled without output-size models: %+v, want time 3 and no sizes", got)
	}
	wf, err := p.NewWorkflow().
		DatasetWithMeta("log", "Execution.path=/log\nOptimization.documents=3000\nOptimization.size=300000").
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
	if s.InRecords != 3000 || s.OutRecords != s.InRecords || s.OutBytes != s.InBytes {
		t.Fatalf("step sizes in %d/%d out %d/%d, want the output to keep the input's",
			s.InRecords, s.InBytes, s.OutRecords, s.OutBytes)
	}
}

// A warmed estimate allocates nothing: the profiled operator's configuration
// is one hit of its prediction cache.
func TestLibraryEstimatorWarmedHitAllocatesNothing(t *testing.T) {
	p, err := NewPlatform(Options{Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	registerConcOps(t, p)
	est := libraryEstimator{prof: p.Profiler, lib: p.Library}
	op := "conc_" + concAlgos[0]
	feats := estimatorFeats(20_000)
	if e := est.Estimates(op, feats); !e.ExecTimeOK {
		t.Fatalf("%s: no estimate at %v", op, feats)
	}
	hits, _ := p.Profiler.PredictionCacheStats()
	if allocs := testing.AllocsPerRun(100, func() { est.Estimates(op, feats) }); allocs != 0 {
		t.Fatalf("warmed Estimates allocates %.1f times per call, want 0", allocs)
	}
	if h, _ := p.Profiler.PredictionCacheStats(); h < hits+100 {
		t.Fatalf("warmed Estimates hit the prediction cache %d times in 101 calls", h-hits)
	}
}
