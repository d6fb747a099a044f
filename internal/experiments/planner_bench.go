package experiments

import (
	"fmt"
	"testing"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/planner"
)

// Planner micro-benchmark suite — the tracked perf baseline for the
// incremental planner (BENCH_PLANNER.json). The scenario is the Fig 12
// text-analytics workflow on a profiled TextPlatform: a cold plan rebuilds
// the DP table from scratch (cache flushed per iteration), a warm replan
// replays a fault-recovery round with the tf-idf output already
// materialized, and a warm Pareto build replays the multi-objective table.
// The giant-DAG cell (giantdag.go) rides in the same report.

// The sizes BENCH_PLANNER.json records: the Fig 12 input, and the giant
// Montage DAG with its engine implementations per algorithm.
const (
	plannerBenchDocs  = 100_000
	giantBenchSize    = 10_000
	giantBenchEngines = 6
)

// PlannerBench is a reusable planner benchmark environment.
type PlannerBench struct {
	P    *ires.Platform
	WF   *ires.Workflow
	Done []planner.MaterializedIntermediate
	// Cold is the reference plan of the cold build; warm builds must
	// describe identically.
	Cold *ires.Plan
	// ColdReplan is the reference replan with the Done set.
	ColdReplan *ires.Plan
	// WarmMisses and WarmRows count the node evaluations and table rows the
	// timed loops of BenchReplanWarm caused: a warm replan promises none.
	WarmMisses, WarmRows uint64
}

// NewPlannerBench builds the benchmark environment: the Fig 12 platform and
// workflow, plus the done-set a mid-workflow replan would see (d1, the
// tf-idf output, already materialized).
func NewPlannerBench(seed int64, docs int64) (*PlannerBench, error) {
	p, err := TextPlatform(seed)
	if err != nil {
		return nil, err
	}
	wf, err := TextWorkflow(p, docs)
	if err != nil {
		return nil, err
	}
	cold, err := p.Plan(wf)
	if err != nil {
		return nil, err
	}
	step, ok := cold.StepFor("tfidf")
	if !ok {
		return nil, fmt.Errorf("planner bench: cold plan has no tfidf step:\n%s", cold.Describe())
	}
	done := []planner.MaterializedIntermediate{{
		Dataset: "d1",
		Meta:    step.OutMeta,
		Records: step.OutRecords,
		Bytes:   step.OutBytes,
	}}
	coldReplan, err := p.Replan(wf, done)
	if err != nil {
		return nil, err
	}
	return &PlannerBench{P: p, WF: wf, Done: done, Cold: cold, ColdReplan: coldReplan}, nil
}

// BenchPlanCold measures a from-scratch optimization pass: the planner cache
// is flushed before every iteration.
func (e *PlannerBench) BenchPlanCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.P.ResetPlannerCache()
		pl, err := e.P.Plan(e.WF)
		if err != nil {
			b.Fatal(err)
		}
		_ = pl
	}
}

// BenchReplanWarm measures the fault-recovery replan with a hot cache: the
// first replan after the warm-up is served from memoized subtrees and the
// shared seed map.
func (e *PlannerBench) BenchReplanWarm(b *testing.B) {
	b.ReportAllocs()
	if _, err := e.P.Replan(e.WF, e.Done); err != nil {
		b.Fatal(err)
	}
	before := e.P.PlannerCacheStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := e.P.Replan(e.WF, e.Done)
		if err != nil {
			b.Fatal(err)
		}
		_ = pl
	}
	b.StopTimer()
	after := e.P.PlannerCacheStats()
	e.WarmMisses += after.Misses - before.Misses
	e.WarmRows += after.RowsAllocated - before.RowsAllocated
}

// BenchParetoWarm measures a warm multi-objective build.
func (e *PlannerBench) BenchParetoWarm(b *testing.B) {
	b.ReportAllocs()
	if _, err := e.P.ParetoPlans(e.WF); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plans, err := e.P.ParetoPlans(e.WF)
		if err != nil {
			b.Fatal(err)
		}
		_ = plans
	}
}

// PlannerBenchResult is one benchmark's measurement.
type PlannerBenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	MsPerOp     float64 `json:"msPerOp"`
}

// PlannerBenchReport is the BENCH_PLANNER.json schema: the three tracked
// measurements plus the derived acceptance ratios.
type PlannerBenchReport struct {
	Seed    int64                `json:"seed"`
	Docs    int64                `json:"docs"`
	Results []PlannerBenchResult `json:"results"`
	// ReplanSpeedup is cold-plan ns/op over warm-replan ns/op. It falls
	// whenever a cold node evaluation gets cheaper, so it is only a sanity
	// floor; what a warm replan promises is gated on the two counts below.
	ReplanSpeedup float64 `json:"replanSpeedup"`
	// WarmReplanMisses and WarmReplanRows are the node evaluations and table
	// rows the timed warm replans caused (gate: none).
	WarmReplanMisses uint64 `json:"warmReplanMisses"`
	WarmReplanRows   uint64 `json:"warmReplanRows"`
	// AllocReduction is the fractional drop in allocations from cold plan to
	// warm replan (0.5 = half the allocations).
	AllocReduction float64 `json:"allocReduction"`
	// WarmIdentical records that warm builds described byte-identically to
	// the cold references.
	WarmIdentical bool `json:"warmIdentical"`
	// CacheStats snapshots the planner cache counters after the run.
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	CacheEpoch  uint64 `json:"cacheEpoch"`
	// Giant holds the giant-DAG flap-replan measurements (see giantdag.go).
	Giant *GiantDAGReport `json:"giantDAG,omitempty"`
}

func toResult(name string, r testing.BenchmarkResult) PlannerBenchResult {
	return PlannerBenchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		MsPerOp:     float64(r.NsPerOp()) / 1e6,
	}
}

// RunPlannerBench executes the suite via testing.Benchmark and derives the
// acceptance ratios, then runs the giant-DAG cell. The warm-vs-cold identity
// check runs first so the measurements are taken on a planner whose
// determinism was just verified.
func RunPlannerBench(seed int64) (*PlannerBenchReport, error) {
	env, err := NewPlannerBench(seed, plannerBenchDocs)
	if err != nil {
		return nil, err
	}

	// Determinism gate: warm plan and warm replan must describe identically
	// to the cold references captured at construction.
	warmPlan, err := env.P.Plan(env.WF)
	if err != nil {
		return nil, err
	}
	warmReplan, err := env.P.Replan(env.WF, env.Done)
	if err != nil {
		return nil, err
	}
	identical := warmPlan.Describe() == env.Cold.Describe() &&
		warmReplan.Describe() == env.ColdReplan.Describe()
	if !identical {
		return nil, fmt.Errorf("planner bench: warm plan diverged from cold reference:\ncold:\n%s\nwarm:\n%s",
			env.Cold.Describe(), warmPlan.Describe())
	}

	cold := testing.Benchmark(env.BenchPlanCold)
	warm := testing.Benchmark(env.BenchReplanWarm)
	pareto := testing.Benchmark(env.BenchParetoWarm)

	report := &PlannerBenchReport{
		Seed: seed,
		Docs: plannerBenchDocs,
		Results: []PlannerBenchResult{
			toResult("BenchmarkPlanCold", cold),
			toResult("BenchmarkReplanWarm", warm),
			toResult("BenchmarkParetoWarm", pareto),
		},
		WarmIdentical:    identical,
		WarmReplanMisses: env.WarmMisses,
		WarmReplanRows:   env.WarmRows,
	}
	if warm.NsPerOp() > 0 {
		report.ReplanSpeedup = float64(cold.NsPerOp()) / float64(warm.NsPerOp())
	}
	if ca := cold.AllocsPerOp(); ca > 0 {
		report.AllocReduction = 1 - float64(warm.AllocsPerOp())/float64(ca)
	}
	cs := env.P.PlannerCacheStats()
	report.CacheHits, report.CacheMisses, report.CacheEpoch = cs.Hits, cs.Misses, cs.Epoch
	if report.Giant, err = RunGiantDAGBench(giantBenchSize, giantBenchEngines); err != nil {
		return nil, err
	}
	return report, nil
}

// Gate returns an error unless warm replans evaluate no node, stay above the
// 1.5x-speedup and 50%-fewer-allocations floors and reproduce the cold
// plans, and the giant-DAG flap replans miss no more node results than one
// visit of the down state can, cost at most 1.5x a warm replan and reproduce
// the cold plans.
func (report *PlannerBenchReport) Gate() error {
	// What a warm replan promises is that it evaluates no node and
	// builds no row, so that is gated on exact counts. The speed-up
	// divides by the cold plan and falls whenever cold evaluation gets
	// cheaper (6.2x before PR 17, 3.1-4.7x after, the memo working the
	// same): it stays only as a floor no working memo can miss.
	if report.WarmReplanMisses != 0 || report.WarmReplanRows != 0 {
		return fmt.Errorf("warm replans evaluated %d nodes and built %d rows; a warm replan does neither",
			report.WarmReplanMisses, report.WarmReplanRows)
	}
	if report.ReplanSpeedup < 1.5 {
		return fmt.Errorf("warm replan speedup %.2fx below the 1.5x floor", report.ReplanSpeedup)
	}
	if report.AllocReduction < 0.5 {
		return fmt.Errorf("allocation reduction %.0f%% below the 50%% floor", report.AllocReduction*100)
	}
	if !report.WarmIdentical {
		return fmt.Errorf("warm plans diverged from cold references")
	}
	if g := report.Giant; g != nil {
		// What availability keys promise, stated without the wholesale
		// baseline in the denominator: a flap re-derives only the nodes it
		// can touch, once per state, and replanning after it costs about a
		// warm replan.
		if g.FlapMisses > uint64(g.FlapScope) {
			return fmt.Errorf("giant-DAG flaps missed %d node results over %d flaps, beyond the flap scope of %d",
				g.FlapMisses, g.Flaps, g.FlapScope)
		}
		if g.PartialOverWarm > 1.5 {
			return fmt.Errorf("giant-DAG partial flap replan costs %.2fx a warm replan, above the 1.5x ceiling", g.PartialOverWarm)
		}
		if !g.FlapIdentical {
			return fmt.Errorf("giant-DAG flap replans diverged from cold references")
		}
	}
	return nil
}

// Report renders the measurements as an ires-bench report.
func (report *PlannerBenchReport) Report() *Report {
	r := &Report{ID: "PLANNER", Title: "Incremental planner: cold plan, warm replan, warm Pareto, giant-DAG flap replan"}
	table := func(title string, results []PlannerBenchResult) {
		t := Table{Title: title, Header: []string{"ns/op", "B/op", "allocs/op", "benchmark"}}
		for _, res := range results {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", res.NsPerOp),
				fmt.Sprintf("%d", res.BytesPerOp),
				fmt.Sprintf("%d", res.AllocsPerOp),
				"  " + res.Name,
			})
		}
		r.Tables = append(r.Tables, t)
	}
	table(fmt.Sprintf("Fig 12 text workflow, %d documents", report.Docs), report.Results)
	r.Note("replan speedup %.1fx (cold plan vs warm replan), allocation reduction %.0f%%, warm identical %v",
		report.ReplanSpeedup, report.AllocReduction*100, report.WarmIdentical)
	r.Note("cache hits/misses %d/%d (epoch %d); timed warm replans caused %d misses and %d rows",
		report.CacheHits, report.CacheMisses, report.CacheEpoch, report.WarmReplanMisses, report.WarmReplanRows)
	if g := report.Giant; g != nil {
		table(fmt.Sprintf("giant DAG: %s, %d operators, %d engines/algorithm", g.Category, g.Operators, g.Engines), g.Results)
		r.Note("giant-DAG partial flap replan costs %.2fx a warm replan; flap identical %v; %d flaps missed %d node results (flap scope %d)",
			g.PartialOverWarm, g.FlapIdentical, g.Flaps, g.FlapMisses, g.FlapScope)
	}
	return r
}
