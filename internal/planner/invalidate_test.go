package planner

import (
	"bytes"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/trace"
)

// kmeansSparkDesc is a third kmeans implementation on an engine (Spark) no
// other operator uses, giving eviction-scope tests an engine that exactly one
// workflow node matches.
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

// tfidfWekaParamDesc is TF_IDF_weka with one parameter added, which the
// estimators ignore: a redefinition of the winning upstream operator that
// changes no estimate, output tag or move.
const tfidfWekaParamDesc = `
Constraints.Engine=Java
Constraints.OpSpecification.Algorithm.name=TF_IDF
Constraints.Input.number=1
Constraints.Output.number=1
Constraints.Input0.Engine.FS=LFS
Constraints.Input0.type=arff
Constraints.Output0.Engine.FS=LFS
Constraints.Output0.type=arff
Optimization.param.k=5
`

// sparkEstimator extends textEstimator with a (slow, never-winning) Spark
// kmeans so the third implementation is feasible but does not change plans.
func sparkEstimator() stubEstimator {
	est := textEstimator()
	est["kmeans_spark"] = stubOp{time: func(r float64) float64 { return 500 + r }, outFactor: 0.1}
	return est
}

// TestEvictionScope drives profiler retrains, a library change and engine
// flips against the two-operator text workflow and pins down exactly which
// node results each one evicts or misses. A retrain evicts the results that
// estimated the retrained operator, nothing more: downstream of them a node
// misses by key once the re-evaluated rows it reads move, and hits while they
// do not. A library change and an engine flip evict nothing: the nodes whose
// matches they alter miss in the new state, and the flip back up hits the
// results of the first state without building a row. Every warm plan is the
// plan of a cold planner in the same state.
func TestEvictionScope(t *testing.T) {
	// The cached results per plan: node TF_IDF (matches Hadoop+Java ops) and
	// node kmeans (matches Hadoop+Java+Spark ops); kmeans is downstream of
	// TF_IDF.
	cases := []struct {
		name    string
		down    string // engine taken down instead of an event, then brought back up
		event   func(t *testing.T, p *Planner, lib *operator.Library, est *scaledEstimator)
		evicted uint64 // node results evicted by the event
		hits    uint64 // warm hits on the rebuild after the event
		misses  uint64 // re-evaluations on the rebuild after the event
		partial bool   // the event is counted as a partial invalidation
	}{
		{
			name: "engine event with no matching operators",
			down: "Flink",
			// No node matches a Flink operator: every key is unchanged.
			hits: 2, misses: 0,
		},
		{
			name: "engine event scoped to one node",
			down: "Spark",
			// Only kmeans matches a Spark operator; TF_IDF's output row is
			// unchanged, so exactly one node misses.
			hits: 1, misses: 1,
		},
		{
			name: "engine event hitting every node",
			down: "Hadoop",
			// Both nodes match a Hadoop operator.
			hits: 0, misses: 2,
		},
		{
			name: "profiler retrain scoped to one target",
			event: func(t *testing.T, p *Planner, lib *operator.Library, est *scaledEstimator) {
				p.ProfilerRetrain("kmeans_weka")
			},
			evicted: 1, hits: 1, misses: 1, partial: true,
		},
		{
			name: "profiler retrain propagates through keys: rows unchanged",
			event: func(t *testing.T, p *Planner, lib *operator.Library, est *scaledEstimator) {
				p.ProfilerRetrain("TF_IDF_weka")
			},
			// TF_IDF estimated TF_IDF_weka, so it is evicted; its estimates did
			// not move, so it re-evaluates to entries of the same signatures
			// and kmeans, which read them, keeps its key and hits.
			evicted: 1, hits: 1, misses: 1, partial: true,
		},
		{
			name: "profiler retrain moving the upstream rows",
			event: func(t *testing.T, p *Planner, lib *operator.Library, est *scaledEstimator) {
				est.scale["TF_IDF_weka"] = 1.25
				p.ProfilerRetrain("TF_IDF_weka")
			},
			// TF_IDF is evicted and its TF_IDF_weka entry moves, so kmeans's
			// key changes: it misses by key, without being evicted.
			evicted: 1, hits: 0, misses: 2, partial: true,
		},
		{
			name: "profiler retrain of an unknown operator",
			event: func(t *testing.T, p *Planner, lib *operator.Library, est *scaledEstimator) {
				p.ProfilerRetrain("pagerank_giraph")
			},
			evicted: 0, hits: 2, misses: 0, partial: true,
		},
		{
			name: "library removal scoped to the matching node",
			event: func(t *testing.T, p *Planner, lib *operator.Library, est *scaledEstimator) {
				if _, err := lib.AddOperatorDescription("kmeans_spark", kmeansSparkMovedDesc); err != nil {
					t.Fatal(err)
				}
			},
			// The match list is part of the key: kmeans misses, TF_IDF's
			// output row is unchanged so it hits, and nothing is evicted.
			evicted: 0, hits: 1, misses: 1,
		},
		{
			name: "library redefinition under the same name",
			event: func(t *testing.T, p *Planner, lib *operator.Library, est *scaledEstimator) {
				desc := strings.Replace(kmeansSparkDesc, "Engine=Spark", "Engine=Flink", 1)
				if _, err := lib.AddOperatorDescription("kmeans_spark", desc); err != nil {
					t.Fatal(err)
				}
			},
			// The same names match kmeans, but one definition changed: the
			// key digests definitions too, so kmeans misses.
			evicted: 0, hits: 1, misses: 1,
		},
		{
			name: "winning upstream redefinition under the same name",
			event: func(t *testing.T, p *Planner, lib *operator.Library, est *scaledEstimator) {
				if _, err := lib.AddOperatorDescription("TF_IDF_weka", tfidfWekaParamDesc); err != nil {
					t.Fatal(err)
				}
			},
			// TF_IDF's key digests the new definition, and so do the sigs of
			// the entries it inserts: kmeans reads them, so it misses too.
			evicted: 0, hits: 0, misses: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lib := textLib(t)
			if _, err := lib.AddOperatorDescription("kmeans_spark", kmeansSparkDesc); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			down := ""
			avail := func(name string) bool { mu.Lock(); defer mu.Unlock(); return name != down }
			setDown := func(e string) { mu.Lock(); down = e; mu.Unlock() }
			est := &scaledEstimator{base: sparkEstimator(), scale: map[string]float64{}}
			p := newPlanner(t, lib, est, func(c *Config) { c.EngineAvailable = avail })
			ref, err := p.Plan(textWorkflow(t, 1000))
			if err != nil {
				t.Fatal(err)
			}
			before := p.CacheStats()

			if tc.down != "" {
				setDown(tc.down)
			} else {
				tc.event(t, p, lib, est)
			}
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
			if after.Epoch != before.Epoch {
				t.Fatalf("event caused %d wholesale flushes, want none", after.Epoch-before.Epoch)
			}
			if partial := after.PartialInvalidations != before.PartialInvalidations; partial != tc.partial {
				t.Fatalf("counted as a partial invalidation: %v, want %v (before=%+v after=%+v)", partial, tc.partial, before, after)
			}
			// The warm plan is a cold planner's, and every step carries the
			// operator the library holds now.
			cold, err := newPlanner(t, lib, est, func(c *Config) { c.EngineAvailable = avail }).Plan(textWorkflow(t, 1000))
			if err != nil {
				t.Fatal(err)
			}
			if got.Describe() != cold.Describe() {
				t.Fatalf("plan diverged from a cold planner's after the event:\ncold:\n%s\nwarm:\n%s", cold.Describe(), got.Describe())
			}
			if len(got.Steps) != len(cold.Steps) {
				t.Fatalf("warm plan has %d steps, a cold planner's %d", len(got.Steps), len(cold.Steps))
			}
			for i, s := range got.Steps {
				if s.Kind != StepOperator {
					continue
				}
				if op, _ := lib.Operator(s.Op.Name); s.Op != op || cold.Steps[i].Op != op {
					t.Fatalf("step %s carries a stale %s definition", s.Name, s.Op.Name)
				}
			}
			if tc.down == "" {
				return
			}
			// The flip back up returns to the state of the first plan, whose
			// results are still cached: all hits, no row built.
			setDown("")
			back, err := p.Plan(textWorkflow(t, 1000))
			if err != nil {
				t.Fatal(err)
			}
			final := p.CacheStats()
			if final.Hits != after.Hits+2 || final.Misses != after.Misses || final.RowsAllocated != after.RowsAllocated ||
				final.EvictedEntries != before.EvictedEntries {
				t.Fatalf("flip back up was not all hits: after=%+v final=%+v", after, final)
			}
			if back.Describe() != ref.Describe() {
				t.Fatalf("plan diverged after the flip back up:\nbefore:\n%s\nafter:\n%s", ref.Describe(), back.Describe())
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
// planner subjected to a random storm of engine flips, profiler retrains and
// library re-registrations must always produce the same plan bytes as a freshly
// built cold planner observing identical external state. Flips send no event:
// the build reads availability into its keys.
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
		case 0, 1: // availability flip (a platform flip, a breaker trip or half-open)
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
// guard to engine flaps: after Java goes down and comes back, the warm
// planner's plan AND trace bytes must match a cold planner built under the
// same availability. The down flip misses both nodes (both match a Java
// operator); the up flip returns to the first state and is all hits.
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
		before := len(warmRec.Events())
		cs := warm.CacheStats()
		warmPlan, err := warm.Plan(textWorkflow(t, 1000))
		if err != nil {
			t.Fatal(err)
		}
		after := warm.CacheStats()
		wantMisses := uint64(2)
		if state {
			wantMisses = 0
		}
		if after.Misses-cs.Misses != wantMisses || (state && after.RowsAllocated != cs.RowsAllocated) {
			t.Fatalf("step %d: missed %d nodes, built %d rows; want %d misses (and no row when back up)",
				step, after.Misses-cs.Misses, after.RowsAllocated-cs.RowsAllocated, wantMisses)
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
	if cs := warm.CacheStats(); cs.Epoch != 0 || cs.EvictedEntries != 0 || cs.PartialInvalidations != 0 {
		t.Fatalf("flaps should neither flush nor evict: %+v", cs)
	}
}

// TestAvailabilitySnapshotPerBuild pins the build boundary as the only place
// availability is read: with an EngineAvailable that answers the opposite of
// its last answer on every call, each build probes every library engine
// exactly once, and its plan is the plan of a cold planner pinned to what
// that one probe returned. A probe per candidate would plan against a mix
// of states and store the result under the key of one of them.
func TestAvailabilitySnapshotPerBuild(t *testing.T) {
	lib := textLib(t)
	if _, err := lib.AddOperatorDescription("kmeans_spark", kmeansSparkDesc); err != nil {
		t.Fatal(err)
	}
	engines := lib.Engines()
	var mu sync.Mutex
	up := true
	calls := map[string]int{}
	seen := map[string]bool{} // the last answer per engine: the build's snapshot
	flipping := func(name string) bool {
		mu.Lock()
		defer mu.Unlock()
		up = !up
		calls[name]++
		seen[name] = up
		return up
	}
	warm := newPlanner(t, lib, sparkEstimator(), func(c *Config) { c.EngineAvailable = flipping })
	for build := 0; build < 6; build++ {
		clear(calls)
		before := warm.CacheStats()
		warmPlan, warmErr := warm.Plan(textWorkflow(t, 1000))
		after := warm.CacheStats()
		mu.Lock()
		for _, e := range engines {
			if calls[e] != 1 {
				t.Fatalf("build %d probed %s %d times; want once per engine per build (%v)", build, e, calls[e], calls)
			}
		}
		if len(calls) != len(engines) {
			t.Fatalf("build %d probed %v; want exactly the library engines %v", build, calls, engines)
		}
		snapshot := maps.Clone(seen)
		mu.Unlock()

		// Three engines probed in turn against one alternating answer: the
		// snapshots alternate between two states, and from the third build
		// on each state is one already planned.
		if build >= 2 && (after.Misses != before.Misses || after.RowsAllocated != before.RowsAllocated) {
			t.Fatalf("build %d revisits a planned state but missed: before=%+v after=%+v", build, before, after)
		}
		cold := newPlanner(t, lib, sparkEstimator(), func(c *Config) {
			c.EngineAvailable = func(name string) bool { return snapshot[name] }
		})
		coldPlan, coldErr := cold.Plan(textWorkflow(t, 1000))
		if (warmErr == nil) != (coldErr == nil) {
			t.Fatalf("build %d under %v: warm err=%v cold err=%v", build, snapshot, warmErr, coldErr)
		}
		if warmErr == nil && warmPlan.Describe() != coldPlan.Describe() {
			t.Fatalf("build %d under %v: warm plan diverged from cold:\ncold:\n%s\nwarm:\n%s",
				build, snapshot, coldPlan.Describe(), warmPlan.Describe())
		}
	}
}

// TestFlapStormBoundsEntries is the O(live) bound for availability and
// library keys: a storm that takes one of k engines down at a time and
// brings it back visits k+1 states, and every node result it leaves cached
// belongs to one of them, so the cache never holds more than k+1 times the
// results of one state; a library that alternates between two definitions
// of one operator visits two. Past maxCachedNodes the wholesale flush still
// fires.
func TestFlapStormBoundsEntries(t *testing.T) {
	newLib := func() *operator.Library {
		lib := textLib(t)
		if _, err := lib.AddOperatorDescription("kmeans_spark", kmeansSparkDesc); err != nil {
			t.Fatal(err)
		}
		return lib
	}
	engines := []string{"Hadoop", "Java", "Spark"}
	plan := func(p *Planner) {
		t.Helper()
		if _, err := p.Plan(textWorkflow(t, 1000)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ParetoPlans(textWorkflow(t, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	down := ""
	avail := func(name string) bool { mu.Lock(); defer mu.Unlock(); return name != down }
	setDown := func(e string) { mu.Lock(); down = e; mu.Unlock() }

	one := newPlanner(t, newLib(), sparkEstimator())
	plan(one)
	perState := one.CacheStats().NodeEntries

	t.Run("k+1 states", func(t *testing.T) {
		setDown("")
		p := newPlanner(t, newLib(), sparkEstimator(), func(c *Config) { c.EngineAvailable = avail })
		rng := rand.New(rand.NewSource(7))
		bound := (len(engines) + 1) * perState
		for i := 0; i < 100; i++ {
			setDown(engines[rng.Intn(len(engines))])
			plan(p)
			setDown("")
			plan(p)
			if n := p.CacheStats().NodeEntries; n > bound {
				t.Fatalf("flap %d: %d node results cached, above (k+1) x %d = %d", i, n, perState, bound)
			}
		}
		cs := p.CacheStats()
		if cs.NodeEntries <= perState || cs.Epoch != 0 || cs.EvictedEntries != 0 {
			t.Fatalf("storm kept no second state, or flushed or evicted: %+v (one state: %d)", cs, perState)
		}
	})

	t.Run("library churn", func(t *testing.T) {
		// kmeans_spark alternates between matching the kmeans node and not:
		// two library states, each its own keys, so from the third build on
		// every build is all hits.
		lib := newLib()
		p := newPlanner(t, lib, sparkEstimator())
		for i := 0; i < 20; i++ {
			desc := kmeansSparkMovedDesc
			if i%2 == 1 {
				desc = kmeansSparkDesc
			}
			if _, err := lib.AddOperatorDescription("kmeans_spark", desc); err != nil {
				t.Fatal(err)
			}
			before := p.CacheStats()
			plan(p)
			after := p.CacheStats()
			if n := after.NodeEntries; n > 2*perState {
				t.Fatalf("churn %d: %d node results cached, above 2 x %d", i, n, perState)
			}
			if i >= 2 && after.Misses != before.Misses {
				t.Fatalf("churn %d revisits a planned library state but missed: before=%+v after=%+v", i, before, after)
			}
		}
		cs := p.CacheStats()
		if cs.NodeEntries <= perState || cs.Epoch != 0 || cs.EvictedEntries != 0 {
			t.Fatalf("churn kept no second state, or flushed or evicted: %+v (one state: %d)", cs, perState)
		}
	})

	t.Run("size bound flushes", func(t *testing.T) {
		// Scalar plans only, so each build adds the two results of one state.
		defer func(n int) { maxCachedNodes = n }(maxCachedNodes)
		maxCachedNodes = 3 // two states exceed it
		setDown("")
		p := newPlanner(t, newLib(), sparkEstimator(), func(c *Config) { c.EngineAvailable = avail })
		scalar := func() {
			t.Helper()
			if _, err := p.Plan(textWorkflow(t, 1000)); err != nil {
				t.Fatal(err)
			}
		}
		scalar()
		setDown("Hadoop")
		scalar()
		if cs := p.CacheStats(); cs.NodeEntries != 4 || cs.Epoch != 0 {
			t.Fatalf("two states should overflow the bound without a flush yet: %+v", cs)
		}
		setDown("")
		scalar()
		if cs := p.CacheStats(); cs.Epoch != 1 || cs.NodeEntries != 2 || cs.Hits != 0 {
			t.Fatalf("build past the bound did not flush to one state: %+v", cs)
		}
	})
}
