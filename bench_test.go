package ires_test

// One sub-benchmark per paper table/figure (D3.3 §4 + the MuSQLE appendix),
// each regenerating the corresponding cell of internal/experiments, plus
// micro-benchmarks of the planner-critical paths. Run with:
//
//	go test -bench=. -benchmem
import (
	"sync"
	"testing"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/experiments"
	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/musqle"
	"github.com/asap-project/ires/internal/pegasus"
	"github.com/asap-project/ires/internal/sqldata"
)

// BenchmarkCells regenerates every paper table and figure, one sub-benchmark
// per cell of experiments.Cells at the -quick sweep sizes (the tracked
// baselines have their own tier-1 test, TestTrackedBaselines):
//
//	go test -run '^$' -bench 'Cells/FIG11$' -benchtime=1x .
func BenchmarkCells(b *testing.B) {
	for _, c := range experiments.Cells {
		if c.File != "" {
			continue
		}
		b.Run(c.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := c.Run(experiments.Params{Seed: int64(i + 1), Quick: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObserveThenPlan measures one beat of the online refinement loop
// Figure 16 evaluates, at the platform's default model zoo: a wave of eight
// Fig 12 text runs under FairShare(8), whose observations pile up unread on
// the four text operators, then the one plan that reads them — and pays the
// deferred model fits.
func BenchmarkObserveThenPlan(b *testing.B) {
	p, err := ires.NewPlatform(ires.Options{Seed: 42, Admission: ires.FairShare(8)})
	if err != nil {
		b.Fatal(err)
	}
	workflows, err := p.LoadLibraryDir("testdata/asapLibrary")
	if err != nil {
		b.Fatal(err)
	}
	g := workflows["TextClustering"]
	for _, name := range []string{"TF_IDF_cilk", "TF_IDF_spark", "kmeans_cilk", "kmeans_spark"} {
		space := ires.ProfileSpace{
			Records:        []int64{1_000, 10_000, 100_000, 1_000_000},
			BytesPerRecord: 1_000,
			Resources:      []ires.Resources{{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456}, {Nodes: 16, CoresPerN: 2, MemMBPerN: 3456}},
		}
		if _, err := p.ProfileOperator(name, space); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			p.Submit(g)
		}
		p.Drain()
		if _, err := p.Plan(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of planner-critical paths ---

// plannerBench lazily builds the shared Fig12 planner-benchmark harness so
// the setup cost (profiling, cold reference plans) is paid once, outside
// every timed loop.
var plannerBench = struct {
	once sync.Once
	env  *experiments.PlannerBench
	err  error
}{}

func plannerBenchEnv(b *testing.B) *experiments.PlannerBench {
	plannerBench.once.Do(func() {
		plannerBench.env, plannerBench.err = experiments.NewPlannerBench(42, 100_000)
	})
	if plannerBench.err != nil {
		b.Fatal(plannerBench.err)
	}
	return plannerBench.env
}

// BenchmarkPlanCold measures a from-scratch optimization pass over the Fig12
// text-analytics workflow: every planner cache (DP memo, prediction cache,
// match index) is flushed before each iteration.
func BenchmarkPlanCold(b *testing.B) {
	plannerBenchEnv(b).BenchPlanCold(b)
}

// BenchmarkReplanWarm measures a mid-flight Replan with all planner caches
// warm — the memoized-DP fast path tracked in BENCH_PLANNER.json.
func BenchmarkReplanWarm(b *testing.B) {
	plannerBenchEnv(b).BenchReplanWarm(b)
}

// BenchmarkParetoWarm measures a warm multi-objective ParetoPlans pass over
// the same workflow.
func BenchmarkParetoWarm(b *testing.B) {
	plannerBenchEnv(b).BenchParetoWarm(b)
}

// planWideEngines are the four implementations bench/e2e's plan_wide workload
// registers for every Pegasus algorithm.
var planWideEngines = []string{ires.EngineSpark, ires.EngineMapReduce, ires.EngineHama, ires.EngineJava}

// BenchmarkPlanWide is the profiling handle for the planner path bench/e2e's
// plan_wide workload measures: Sipht-300 (fan-in 291) and Montage-100 over
// four profiled engines per algorithm, one sub-benchmark per request kind.
//
//	go test -run '^$' -bench PlanWide -cpuprofile cpu.out .
func BenchmarkPlanWide(b *testing.B) {
	p, err := ires.NewPlatform(ires.Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	profiles := map[string]engine.Profile{}
	for _, pr := range engine.DefaultProfiles() {
		profiles[pr.Name] = pr
	}
	var graphs []*ires.Workflow
	seen := map[string]bool{}
	for _, spec := range []struct {
		cat  pegasus.Category
		size int
	}{{pegasus.Sipht, 300}, {pegasus.Montage, 100}} {
		g, err := pegasus.Generate(spec.cat, spec.size)
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, g)
		for _, alg := range pegasus.Algorithms(g) {
			if seen[alg] {
				continue
			}
			seen[alg] = true
			p.Env.RegisterWorkload(engine.Workload{
				Algorithm: alg, UnitsPerRecord: 50 * float64(1+len(seen)%7),
				MemBytesPerRecord: 80, OutputFactor: 0.8, MinOutputRecords: 1,
			})
			for _, eng := range planWideEngines {
				pr, res := profiles[eng], engine.StandardCluster
				if pr.Centralized {
					res = engine.SingleNode
				}
				name := alg + "_" + eng
				desc := "Constraints.Engine=" + eng +
					"\nConstraints.OpSpecification.Algorithm.name=" + alg +
					"\nConstraints.Input0.Engine.FS=" + pr.FS +
					"\nConstraints.Output0.Engine.FS=" + pr.FS + "\n"
				if err := p.RegisterOperator(name, desc); err != nil {
					b.Fatal(err)
				}
				space := ires.ProfileSpace{
					Records:        []int64{1_000, 10_000, 100_000, 1_000_000},
					BytesPerRecord: 1_000,
					Resources:      []ires.Resources{res},
				}
				if _, err := p.ProfileOperator(name, space); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	plan := func(b *testing.B, i int) {
		if _, err := p.Plan(graphs[i%len(graphs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		plan(b, 0)
		plan(b, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan(b, i)
		}
	})
	b.Run("flap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Down on even iterations, up again on odd ones: one engine is
			// down at most, as in plan_wide.
			p.SetEngineAvailable(planWideEngines[i/2%len(planWideEngines)], i%2 == 1)
			plan(b, i/2)
		}
		for _, eng := range planWideEngines {
			p.SetEngineAvailable(eng, true)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.ResetPlannerCache()
			plan(b, i)
		}
	})
	b.Run("pareto", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.ResetPlannerCache()
			if _, err := p.ParetoPlans(graphs[i%len(graphs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlannerMontage1000 measures one optimization pass over a
// 1000-node Montage workflow with 8 engines (the paper's extreme case,
// bounded at 10s there).
func BenchmarkPlannerMontage1000(b *testing.B) {
	g, err := pegasus.Generate(pegasus.Montage, 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PlanPegasus(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetadataMatch measures the one-pass tree matching primitive.
func BenchmarkMetadataMatch(b *testing.B) {
	abstract := metadata.MustParse(`
Constraints.Input.number=1
Constraints.OpSpecification.Algorithm.name=TF_IDF
Constraints.Output.number=1
`)
	materialized := metadata.MustParse(`
Constraints.Engine=Hadoop
Constraints.Input.number=1
Constraints.Input0.type=SequenceFile
Constraints.Input0.Engine.FS=HDFS
Constraints.OpSpecification.Algorithm.name=TF_IDF
Constraints.Output.number=1
Constraints.Output0.type=SequenceFile
Execution.LuaScript=tfidf.lua
Optimization.model.execTime=UserFunction
`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !metadata.Matches(abstract, materialized) {
			b.Fatal("should match")
		}
	}
}

// BenchmarkMusqleOptimize7Tables measures one DP join-ordering pass for a
// 7-table query over 3 engines.
func BenchmarkMusqleOptimize7Tables(b *testing.B) {
	cat := musqle.NewCatalog()
	if err := cat.LoadTPCH(sqldata.Generate(0.002, 1)); err != nil {
		b.Fatal(err)
	}
	reg := musqle.DefaultRegistry()
	opt := musqle.NewOptimizer(cat, reg)
	q, err := musqle.GenerateQuery(cat, 7, true, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoin measures the MuSQLE execution hash join on ~60k rows.
func BenchmarkHashJoin(b *testing.B) {
	tables := sqldata.Generate(0.01, 1)
	pred := []musqle.JoinPred{{
		LeftTable: "lineitem", LeftCol: "l_orderkey",
		RightTable: "orders", RightCol: "o_orderkey",
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := musqle.HashJoin(tables["lineitem"], tables["orders"], pred)
		if err != nil || out.NumRows() == 0 {
			b.Fatalf("join failed: %v", err)
		}
	}
}
