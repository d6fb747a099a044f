package planner

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/trace"
)

// kmeansSparkDesc is a third kmeans implementation on an engine (Spark) no
// other operator uses, giving eviction-scope tests an engine whose footprint
// covers exactly one workflow node.
const kmeansSparkDesc = `
Constraints.Engine=Spark
Constraints.OpSpecification.Algorithm.name=kmeans
Constraints.Input.number=1
Constraints.Output.number=1
Constraints.Input0.Engine.FS=HDFS
Constraints.Input0.type=SequenceFile
Constraints.Output0.Engine.FS=HDFS
Constraints.Output0.type=SequenceFile
`

// kmeansSparkMovedDesc re-registers kmeans_spark under another algorithm: the
// library change that takes it out of the kmeans node's matches.
var kmeansSparkMovedDesc = strings.Replace(kmeansSparkDesc, "name=kmeans", "name=pagerank", 1)

// sparkEstimator extends textEstimator with a (slow, never-winning) Spark
// kmeans so the third implementation is feasible but does not change plans.
func sparkEstimator() stubEstimator {
	est := textEstimator()
	est["kmeans_spark"] = stubOp{time: func(r float64) float64 { return 500 + r }, outFactor: 0.1}
	return est
}

// TestEvictionScope drives every typed invalidation channel against the
// two-operator text workflow and pins down exactly which node results each
// one evicts: footprint hits plus their downstream dependents, nothing more.
func TestEvictionScope(t *testing.T) {
	// The cached results per plan: node TF_IDF (matches Hadoop+Java ops) and
	// node kmeans (matches Hadoop+Java+Spark ops); kmeans is downstream of
	// TF_IDF.
	cases := []struct {
		name    string
		event   func(t *testing.T, p *Planner, lib *operator.Library)
		evicted uint64 // node results evicted by the event
		hits    uint64 // warm hits on the rebuild after the event
		misses  uint64 // re-evaluations on the rebuild after the event
		epochs  uint64 // wholesale flushes the event causes
	}{
		{
			name:  "engine event with no matching operators",
			event: func(t *testing.T, p *Planner, lib *operator.Library) { p.EngineAvailability("Flink") },
			// Applied as a partial event, but no footprint touches Flink.
			evicted: 0, hits: 2, misses: 0,
		},
		{
			name:  "engine event scoped to one node",
			event: func(t *testing.T, p *Planner, lib *operator.Library) { p.EngineAvailability("Spark") },
			// Only kmeans matches a Spark operator; it has no downstream
			// operator, so exactly one result goes.
			evicted: 1, hits: 1, misses: 1,
		},
		{
			name:  "engine event hitting every node",
			event: func(t *testing.T, p *Planner, lib *operator.Library) { p.EngineAvailability("Hadoop") },
			// Both nodes match a Hadoop operator.
			evicted: 2, hits: 0, misses: 2,
		},
		{
			name:    "profiler retrain scoped to one target",
			event:   func(t *testing.T, p *Planner, lib *operator.Library) { p.ProfilerRetrain("kmeans_weka") },
			evicted: 1, hits: 1, misses: 1,
		},
		{
			name:  "profiler retrain propagates through parent links",
			event: func(t *testing.T, p *Planner, lib *operator.Library) { p.ProfilerRetrain("TF_IDF_weka") },
			// TF_IDF is footprint-hit; kmeans read its output entries, so the
			// eviction walks the DP parent links down to it.
			evicted: 2, hits: 0, misses: 2,
		},
		{
			name:    "profiler retrain of an unknown operator",
			event:   func(t *testing.T, p *Planner, lib *operator.Library) { p.ProfilerRetrain("pagerank_giraph") },
			evicted: 0, hits: 2, misses: 0,
		},
		{
			name: "library removal scoped to the matching node",
			event: func(t *testing.T, p *Planner, lib *operator.Library) {
				if _, err := lib.AddOperatorDescription("kmeans_spark", kmeansSparkMovedDesc); err != nil {
					t.Fatal(err)
				}
			},
			evicted: 1, hits: 1, misses: 1,
		},
		{
			name:  "untyped event falls back to wholesale flush",
			event: func(t *testing.T, p *Planner, lib *operator.Library) { p.ProfilerRetrain("") },
			// Wholesale: epoch bumps, everything misses, partial counters
			// untouched.
			evicted: 0, hits: 0, misses: 2, epochs: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lib := textLib(t)
			if _, err := lib.AddOperatorDescription("kmeans_spark", kmeansSparkDesc); err != nil {
				t.Fatal(err)
			}
			p := newPlanner(t, lib, sparkEstimator())
			ref, err := p.Plan(textWorkflow(t, 1000))
			if err != nil {
				t.Fatal(err)
			}
			before := p.CacheStats()

			tc.event(t, p, lib)
			got, err := p.Plan(textWorkflow(t, 1000))
			if err != nil {
				t.Fatal(err)
			}
			after := p.CacheStats()

			if d := after.EvictedEntries - before.EvictedEntries; d != tc.evicted {
				t.Fatalf("evicted %d node results, want %d (before=%+v after=%+v)", d, tc.evicted, before, after)
			}
			if d := after.Hits - before.Hits; d != tc.hits {
				t.Fatalf("rebuild hit %d, want %d (before=%+v after=%+v)", d, tc.hits, before, after)
			}
			if d := after.Misses - before.Misses; d != tc.misses {
				t.Fatalf("rebuild missed %d, want %d (before=%+v after=%+v)", d, tc.misses, before, after)
			}
			if d := after.Epoch - before.Epoch; d != tc.epochs {
				t.Fatalf("event caused %d wholesale flushes, want %d", d, tc.epochs)
			}
			if tc.epochs == 0 && after.PartialInvalidations == before.PartialInvalidations {
				t.Fatalf("typed event was not recorded as a partial invalidation: before=%+v after=%+v", before, after)
			}
			// None of these events change the winning plan (Spark never
			// wins, the stub estimator is static); warm-after-eviction
			// results must stay byte-identical.
			if got.Describe() != ref.Describe() {
				t.Fatalf("plan diverged after partial invalidation:\nbefore:\n%s\nafter:\n%s", ref.Describe(), got.Describe())
			}
		})
	}
}

// scaledEstimator wraps a stub estimator with a mutable per-operator scale
// factor, so flap-storm retrains actually change estimates (a stale cache
// entry would surface as a divergent plan).
type scaledEstimator struct {
	base  stubEstimator
	scale map[string]float64
}

func (s *scaledEstimator) Estimates(opName string, feats map[string]float64) Estimates {
	e := s.base.Estimates(opName, feats)
	if m, has := s.scale[opName]; has && e.ExecTimeOK {
		e.ExecTime *= m
		e.Cost *= m
	}
	return e
}

// TestFlapStorm is the randomized partial-invalidation property test: a warm
// planner subjected to a random storm of engine flaps, profiler retrains and
// library re-registrations must always produce the same plan bytes as a freshly
// built cold planner observing identical external state.
func TestFlapStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lib := textLib(t)
	est := &scaledEstimator{base: sparkEstimator(), scale: map[string]float64{}}
	ops := []string{"TF_IDF_mahout", "TF_IDF_weka", "kmeans_mahout", "kmeans_weka", "kmeans_spark"}
	engines := []string{"Hadoop", "Java", "Spark"}

	var mu sync.Mutex
	down := map[string]bool{}
	avail := func(name string) bool {
		mu.Lock()
		defer mu.Unlock()
		return !down[name]
	}

	warm := newPlanner(t, lib, est, func(c *Config) { c.EngineAvailable = avail })
	hasSpark := false
	for i := 0; i < 60; i++ {
		switch action := rng.Intn(4); action {
		case 0: // availability flip, with the typed hint a platform would send
			e := engines[rng.Intn(len(engines))]
			mu.Lock()
			down[e] = !down[e]
			mu.Unlock()
			warm.EngineAvailability(e)
		case 1: // availability flip with NO typed event (breaker half-open shape)
			e := engines[rng.Intn(len(engines))]
			mu.Lock()
			down[e] = !down[e]
			mu.Unlock()
		case 2: // profiler retrain: estimates for one operator change
			op := ops[rng.Intn(len(ops))]
			est.scale[op] = 0.5 + 2*rng.Float64()
			warm.ProfilerRetrain(op)
		case 3: // library churn: kmeans_spark joins or leaves the kmeans node
			desc := kmeansSparkDesc
			if hasSpark {
				desc = kmeansSparkMovedDesc
			}
			if _, err := lib.AddOperatorDescription("kmeans_spark", desc); err != nil {
				t.Fatal(err)
			}
			hasSpark = !hasSpark
		}

		cold := newPlanner(t, lib, est, func(c *Config) { c.EngineAvailable = avail })
		warmPlan, warmErr := warm.Plan(textWorkflow(t, 1000))
		coldPlan, coldErr := cold.Plan(textWorkflow(t, 1000))
		if (warmErr == nil) != (coldErr == nil) {
			t.Fatalf("step %d: warm err=%v cold err=%v", i, warmErr, coldErr)
		}
		if warmErr != nil {
			continue // both infeasible (every engine down) — consistent
		}
		if warmPlan.Describe() != coldPlan.Describe() {
			t.Fatalf("step %d: warm plan diverged from cold rebuild:\ncold:\n%s\nwarm:\n%s",
				i, coldPlan.Describe(), warmPlan.Describe())
		}
	}
	cs := warm.CacheStats()
	if cs.PartialInvalidations == 0 || cs.EvictedEntries == 0 {
		t.Fatalf("storm exercised no partial invalidation: %+v", cs)
	}
	if cs.Hits == 0 {
		t.Fatalf("storm never hit warm entries: %+v", cs)
	}
}

// TestPartialInvalidationByteIdentical extends the warm-vs-cold identity
// guard to the partial-eviction path: after an engine flap is applied by
// typed event + fingerprint, the warm planner's plan AND trace bytes must
// match a cold planner built under the same availability.
func TestPartialInvalidationByteIdentical(t *testing.T) {
	lib := textLib(t)
	est := textEstimator()

	var mu sync.Mutex
	javaUp := true
	avail := func(name string) bool {
		mu.Lock()
		defer mu.Unlock()
		return javaUp || name != "Java"
	}
	setJava := func(on bool) { mu.Lock(); javaUp = on; mu.Unlock() }

	warmRec := trace.NewRecorder(0)
	warm := newPlanner(t, lib, est, func(c *Config) { c.Tracer = warmRec; c.EngineAvailable = avail })
	if _, err := warm.Plan(textWorkflow(t, 1000)); err != nil {
		t.Fatal(err)
	}

	// Flap Java down, then back up; each replan must match a cold planner
	// under the same availability, trace bytes included.
	for step, state := range []bool{false, true} {
		setJava(state)
		warm.EngineAvailability("Java")
		before := len(warmRec.Events())
		warmPlan, err := warm.Plan(textWorkflow(t, 1000))
		if err != nil {
			t.Fatal(err)
		}

		coldRec := trace.NewRecorder(0)
		cold := newPlanner(t, lib, est, func(c *Config) { c.Tracer = coldRec; c.EngineAvailable = avail })
		coldPlan, err := cold.Plan(textWorkflow(t, 1000))
		if err != nil {
			t.Fatal(err)
		}
		if warmPlan.Describe() != coldPlan.Describe() {
			t.Fatalf("step %d: Describe diverged:\ncold:\n%s\nwarm:\n%s", step, coldPlan.Describe(), warmPlan.Describe())
		}
		coldEvents := coldRec.Events()
		warmEvents := warmRec.Events()[before:]
		if len(warmEvents) != len(coldEvents) {
			t.Fatalf("step %d: event counts: cold=%d warm=%d", step, len(coldEvents), len(warmEvents))
		}
		for i := range warmEvents {
			warmEvents[i].Seq = coldEvents[i].Seq
		}
		var want, got bytes.Buffer
		if err := trace.WriteJSONL(&want, coldEvents); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteJSONL(&got, warmEvents); err != nil {
			t.Fatal(err)
		}
		if want.String() != got.String() {
			t.Fatalf("step %d: trace diverged:\ncold:\n%s\nwarm:\n%s", step, want.String(), got.String())
		}
	}
	if cs := warm.CacheStats(); cs.Epoch != 0 || cs.PartialInvalidations == 0 {
		t.Fatalf("flaps should be partial, not wholesale: %+v", cs)
	}
}
