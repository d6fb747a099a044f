package experiments

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/pegasus"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/workflow"
)

// Giant-DAG planner benchmark: a Pegasus Montage workflow at thousands of
// operators, m alternative engines per algorithm, plus one extra "flapEngine"
// implementing only the sink-adjacent mShrink algorithm. Flapping that engine
// up and down is the case availability-keyed memoization is designed for:
// the engine's availability is part of the key of the mShrink node alone, so
// the first replan in the down state re-derives that node (and its mJPEG
// dependent, should its input row change) and insert-replays everything else
// warm, and every later replan in either state is all hits. The cold plan is
// the cost a wholesale flush would pay for the same flap.

// giantFlapEngine is the extra engine the flap benchmarks toggle.
const giantFlapEngine = "flapEngine"

// giantFlapAlg is the algorithm the flap engine implements; in Montage it is
// adjacent to the sink (mShrink -> mJPEG -> target).
const giantFlapAlg = "mShrink"

// GiantDAGBench is a reusable giant-DAG benchmark environment.
type GiantDAGBench struct {
	G       *workflow.Graph
	P       *planner.Planner
	Size    int // operators in the generated graph
	Engines int // engine implementations per algorithm (flap engine excluded)
	lib     *operator.Library
	flapUp  atomic.Bool
	flaps   uint64 // setFlap calls
	// RefUp and RefDown are cold-planner references for the two availability
	// states; warm replans after a flap must describe identically.
	RefUp, RefDown string
}

// giantLib builds the m-engine pegasus library plus the flap engine's
// implementation of the flap algorithm.
func giantLib(g *workflow.Graph, engines int) (*operator.Library, error) {
	lib := operator.NewLibrary()
	flapAlgSeen := false
	for _, alg := range pegasus.Algorithms(g) {
		if alg == giantFlapAlg {
			flapAlgSeen = true
		}
		for e := 0; e < engines; e++ {
			name := fmt.Sprintf("%s_engine%d", alg, e)
			desc := fmt.Sprintf(`Constraints.Engine=engine%d
Constraints.OpSpecification.Algorithm.name=%s
Constraints.Input0.Engine.FS=FS%d
Constraints.Output0.Engine.FS=FS%d
`, e, alg, e%3, e%3)
			if _, err := lib.AddOperatorDescription(name, desc); err != nil {
				return nil, err
			}
		}
	}
	if !flapAlgSeen {
		return nil, fmt.Errorf("giant dag: graph has no %s operator to flap", giantFlapAlg)
	}
	desc := fmt.Sprintf(`Constraints.Engine=%s
Constraints.OpSpecification.Algorithm.name=%s
Constraints.Input0.Engine.FS=FS0
Constraints.Output0.Engine.FS=FS0
`, giantFlapEngine, giantFlapAlg)
	if _, err := lib.AddOperatorDescription(giantFlapAlg+"_"+giantFlapEngine, desc); err != nil {
		return nil, err
	}
	return lib, nil
}

// NewGiantDAGBench generates the Montage graph, builds the library and the
// warm planner, and captures cold-planner references for both flap states.
func NewGiantDAGBench(size, engines int) (*GiantDAGBench, error) {
	g, err := pegasus.Generate(pegasus.Montage, size)
	if err != nil {
		return nil, err
	}
	lib, err := giantLib(g, engines)
	if err != nil {
		return nil, err
	}
	e := &GiantDAGBench{G: g, Size: pegasus.OperatorCount(g), Engines: engines, lib: lib}
	e.flapUp.Store(true)
	p, err := planner.New(planner.Config{
		Library:   lib,
		Estimator: synthEstimator{},
		EngineAvailable: func(name string) bool {
			return name != giantFlapEngine || e.flapUp.Load()
		},
	})
	if err != nil {
		return nil, err
	}
	e.P = p

	// Cold references: fresh planners pinned to each availability state.
	for _, up := range []bool{true, false} {
		up := up
		ref, err := planner.New(planner.Config{
			Library:         lib,
			Estimator:       synthEstimator{},
			EngineAvailable: func(name string) bool { return name != giantFlapEngine || up },
		})
		if err != nil {
			return nil, err
		}
		pl, err := ref.Plan(g)
		if err != nil {
			return nil, err
		}
		if up {
			e.RefUp = pl.Describe()
		} else {
			e.RefDown = pl.Describe()
		}
	}
	return e, nil
}

// setFlap changes the flap engine's availability. No event is sent: the
// planner reads availability at its next build boundary.
func (e *GiantDAGBench) setFlap(up bool) {
	e.flapUp.Store(up)
	e.flaps++
}

// flapScope counts the operator nodes a flap of the flap engine may make
// miss: those implementing the flap algorithm and every operator downstream
// of one.
func (e *GiantDAGBench) flapScope() int {
	seen := map[*workflow.Node]bool{}
	var walk func(n *workflow.Node)
	walk = func(n *workflow.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, out := range n.Outputs {
			walk(out)
		}
	}
	for _, o := range e.G.Operators() {
		if o.Operator.Algorithm() == giantFlapAlg {
			walk(o)
		}
	}
	ops := 0
	for n := range seen {
		if n.Kind == workflow.OperatorNode {
			ops++
		}
	}
	return ops
}

// VerifyFlap drives the warm planner through a down/up flap cycle and checks
// each replan against the matching cold reference — the byte-identity gate
// for availability-keyed memoization at giant scale — and against what the
// keys promise: the down flip misses no node outside flapScope, the up flip
// that follows misses none and builds no row, and neither evicts. The
// benched planner is verified on Describe output; a second, trace-recording
// planner pair additionally pins the trace bytes (kept off the benched
// planner so event emission never skews the measurements).
func (e *GiantDAGBench) VerifyFlap() error {
	if _, err := e.P.Plan(e.G); err != nil {
		return err
	}
	scope := uint64(e.flapScope())
	for _, step := range []struct {
		up   bool
		want string
	}{{false, e.RefDown}, {true, e.RefUp}} {
		before := e.P.CacheStats()
		e.setFlap(step.up)
		pl, err := e.P.Plan(e.G)
		if err != nil {
			return err
		}
		if pl.Describe() != step.want {
			return fmt.Errorf("giant dag: warm replan (flap up=%v) diverged from cold reference", step.up)
		}
		after := e.P.CacheStats()
		misses, rows := after.Misses-before.Misses, after.RowsAllocated-before.RowsAllocated
		switch {
		case after.EvictedEntries != before.EvictedEntries || after.Epoch != before.Epoch:
			return fmt.Errorf("giant dag: flap (up=%v) evicted cached results: %+v -> %+v", step.up, before, after)
		case misses > scope:
			return fmt.Errorf("giant dag: flap (up=%v) missed %d node results, beyond the %d it can touch", step.up, misses, scope)
		case step.up && (misses != 0 || rows != 0):
			return fmt.Errorf("giant dag: flap back up missed %d node results and built %d rows; it is all hits", misses, rows)
		}
	}
	return e.verifyFlapTraces()
}

// verifyFlapTraces replays the flap cycle on a trace-recording warm planner
// and compares the event bytes of each replan against a cold planner built
// under the same availability.
func (e *GiantDAGBench) verifyFlapTraces() error {
	var up atomic.Bool
	up.Store(true)
	avail := func(name string) bool { return name != giantFlapEngine || up.Load() }
	warmRec := trace.NewRecorder(0)
	warm, err := planner.New(planner.Config{
		Library: e.lib, Estimator: synthEstimator{},
		EngineAvailable: avail, Tracer: warmRec,
	})
	if err != nil {
		return err
	}
	if _, err := warm.Plan(e.G); err != nil {
		return err
	}
	for _, state := range []bool{false, true} {
		up.Store(state)
		before := len(warmRec.Events())
		if _, err := warm.Plan(e.G); err != nil {
			return err
		}

		coldRec := trace.NewRecorder(0)
		cold, err := planner.New(planner.Config{
			Library: e.lib, Estimator: synthEstimator{},
			EngineAvailable: avail, Tracer: coldRec,
		})
		if err != nil {
			return err
		}
		if _, err := cold.Plan(e.G); err != nil {
			return err
		}
		coldEvents := coldRec.Events()
		warmEvents := warmRec.Events()[before:]
		if len(warmEvents) != len(coldEvents) {
			return fmt.Errorf("giant dag: trace event counts diverged (flap up=%v): cold=%d warm=%d",
				state, len(coldEvents), len(warmEvents))
		}
		for i := range warmEvents {
			warmEvents[i].Seq = coldEvents[i].Seq
		}
		var want, got bytes.Buffer
		if err := trace.WriteJSONL(&want, coldEvents); err != nil {
			return err
		}
		if err := trace.WriteJSONL(&got, warmEvents); err != nil {
			return err
		}
		if want.String() != got.String() {
			return fmt.Errorf("giant dag: warm replan trace diverged from cold reference (flap up=%v)", state)
		}
	}
	return nil
}

// BenchGiantPlanCold measures a from-scratch plan of the giant DAG.
func (e *GiantDAGBench) BenchGiantPlanCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.P.FlushCache()
		if _, err := e.P.Plan(e.G); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchGiantReplanWarm measures a fully warm replan (no invalidation).
func (e *GiantDAGBench) BenchGiantReplanWarm(b *testing.B) {
	b.ReportAllocs()
	if _, err := e.P.Plan(e.G); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.P.Plan(e.G); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchGiantFlapReplanPartial measures the replan after a single engine flap
// under availability-keyed memoization: each iteration toggles the flap
// engine and replans.
func (e *GiantDAGBench) BenchGiantFlapReplanPartial(b *testing.B) {
	b.ReportAllocs()
	if _, err := e.P.Plan(e.G); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.setFlap(i%2 != 0)
		if _, err := e.P.Plan(e.G); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	e.setFlap(true)
	if _, err := e.P.Plan(e.G); err != nil {
		b.Fatal(err)
	}
}

// GiantDAGReport is the giant-DAG section of BENCH_PLANNER.json.
type GiantDAGReport struct {
	Category  string               `json:"category"`
	Operators int                  `json:"operators"`
	Engines   int                  `json:"engines"`
	Results   []PlannerBenchResult `json:"results"`
	// PartialOverWarm is partial flap-replan ns/op over warm-replan ns/op:
	// what re-deriving the evicted entries adds to a replan (gate: <= 1.5).
	PartialOverWarm float64 `json:"partialOverWarm"`
	// FlapIdentical records that warm replans after each flap described
	// identically to cold planners under the same availability.
	FlapIdentical bool `json:"flapIdentical"`
	// Flaps counts the flap replans of the partial cell and FlapMisses the
	// node results they evaluated; FlapScope is how many operator nodes a
	// flap can make miss (flapScope). Both states stay cached, so only the
	// first visit of the down state may miss (gate: FlapMisses <= FlapScope).
	Flaps      uint64 `json:"flaps"`
	FlapMisses uint64 `json:"flapMisses"`
	FlapScope  int    `json:"flapScope"`
}

// RunGiantDAGBench builds the giant-DAG environment, runs the identity gate,
// then measures the three cells and derives the partial-over-warm ratio.
func RunGiantDAGBench(size, engines int) (*GiantDAGReport, error) {
	env, err := NewGiantDAGBench(size, engines)
	if err != nil {
		return nil, err
	}
	if err := env.VerifyFlap(); err != nil {
		return nil, err
	}

	cold := testing.Benchmark(env.BenchGiantPlanCold)
	warm := testing.Benchmark(env.BenchGiantReplanWarm)
	flaps, misses := env.flaps, env.P.CacheStats().Misses
	partial := testing.Benchmark(env.BenchGiantFlapReplanPartial)

	report := &GiantDAGReport{
		Category:  string(pegasus.Montage),
		Operators: env.Size,
		Engines:   engines,
		Results: []PlannerBenchResult{
			toResult("BenchmarkGiantPlanCold", cold),
			toResult("BenchmarkGiantReplanWarm", warm),
			toResult("BenchmarkGiantFlapReplanPartial", partial),
		},
		FlapIdentical: true,
		Flaps:         env.flaps - flaps,
		FlapMisses:    env.P.CacheStats().Misses - misses,
		FlapScope:     env.flapScope(),
	}
	if warm.NsPerOp() > 0 {
		report.PartialOverWarm = float64(partial.NsPerOp()) / float64(warm.NsPerOp())
	}
	return report, nil
}
