package planner

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/workflow"
)

// textEstimator is the standard stub for the Figure 4 text-analytics
// workflow: Hadoop scales sub-linearly, WEKA is fast on small inputs but
// blows up on large ones.
func textEstimator() stubEstimator {
	return stubEstimator{
		"TF_IDF_mahout": {time: func(r float64) float64 { return 100 + r/100 }, outFactor: 0.8},
		"TF_IDF_weka":   {time: func(r float64) float64 { return 5 + r/10 }, outFactor: 0.8},
		"kmeans_mahout": {time: func(r float64) float64 { return 120 + r/80 }, outFactor: 0.1},
		"kmeans_weka":   {time: func(r float64) float64 { return 8 + r/8 }, outFactor: 0.1},
	}
}

// traceJSONL renders a recorder's retained events as JSON lines, the
// byte-comparison form used by the determinism tests.
func traceJSONL(t *testing.T, rec *trace.Recorder) string {
	t.Helper()
	var b bytes.Buffer
	if err := trace.WriteJSONL(&b, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWarmPlanByteIdentical is the determinism guard: a warm (fully cached)
// build must produce byte-identical Describe output AND byte-identical trace
// events compared to the cold build that populated the cache. A fresh
// planner with its own recorder serves as the cold reference so sequence
// numbers line up.
func TestWarmPlanByteIdentical(t *testing.T) {
	lib := textLib(t)
	est := textEstimator()

	coldRec := trace.NewRecorder(0)
	cold := newPlanner(t, lib, est, func(c *Config) { c.Tracer = coldRec })
	warmRec := trace.NewRecorder(0)
	warm := newPlanner(t, lib, est, func(c *Config) { c.Tracer = warmRec })

	g := textWorkflow(t, 1000)
	coldPlan, err := cold.Plan(g)
	if err != nil {
		t.Fatalf("cold plan: %v", err)
	}
	if _, err := warm.Plan(g); err != nil { // populate warm's cache
		t.Fatalf("warm-up plan: %v", err)
	}
	warmPlan, err := warm.Plan(textWorkflow(t, 1000)) // fresh graph, cached subtrees
	if err != nil {
		t.Fatalf("warm plan: %v", err)
	}

	cs := warm.CacheStats()
	if cs.Hits == 0 {
		t.Fatalf("warm build had no cache hits: %+v", cs)
	}
	if got, want := warmPlan.Describe(), coldPlan.Describe(); got != want {
		t.Fatalf("warm Describe diverged:\ncold:\n%s\nwarm:\n%s", want, got)
	}
	// The warm recorder saw two builds; its second build's events must
	// equal the cold recorder's single build after renumbering.
	coldEvents := coldRec.Events()
	warmEvents := warmRec.Events()
	if len(warmEvents) != 2*len(coldEvents) {
		t.Fatalf("event counts: cold=%d warm=%d", len(coldEvents), len(warmEvents))
	}
	second := warmEvents[len(coldEvents):]
	for i := range second {
		second[i].Seq = coldEvents[i].Seq
	}
	var wantBuf, gotBuf bytes.Buffer
	if err := trace.WriteJSONL(&wantBuf, coldEvents); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(&gotBuf, second); err != nil {
		t.Fatal(err)
	}
	if wantBuf.String() != gotBuf.String() {
		t.Fatalf("warm trace diverged:\ncold:\n%s\nwarm:\n%s", wantBuf.String(), gotBuf.String())
	}
}

// TestWarmReplanByteIdentical extends the guard to replanning with a
// done-set and a restricted engine set (the fault path exercised after
// breaker trips in fixed-seed fault schedules).
func TestWarmReplanByteIdentical(t *testing.T) {
	lib := textLib(t)
	est := textEstimator()
	javaDown := func(name string) bool { return name != "Java" }
	done := []MaterializedIntermediate{{
		Dataset: "d1",
		Meta: metadata.MustParse(`
Engine.FS=HDFS
type=SequenceFile
`),
		Records: 800,
		Bytes:   800 * 4000,
	}}

	coldRec := trace.NewRecorder(0)
	cold := newPlanner(t, lib, est, func(c *Config) { c.Tracer = coldRec; c.EngineAvailable = javaDown })
	warmRec := trace.NewRecorder(0)
	warm := newPlanner(t, lib, est, func(c *Config) { c.Tracer = warmRec; c.EngineAvailable = javaDown })

	coldPlan, err := cold.Replan(textWorkflow(t, 1000), done)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Replan(textWorkflow(t, 1000), done); err != nil {
		t.Fatal(err)
	}
	warmPlan, err := warm.Replan(textWorkflow(t, 1000), done)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheStats().Hits == 0 {
		t.Fatal("warm replan had no cache hits")
	}
	if got, want := warmPlan.Describe(), coldPlan.Describe(); got != want {
		t.Fatalf("warm replan Describe diverged:\ncold:\n%s\nwarm:\n%s", want, got)
	}
	coldEvents := coldRec.Events()
	warmEvents := warmRec.Events()
	second := warmEvents[len(coldEvents):]
	for i := range second {
		second[i].Seq = coldEvents[i].Seq
	}
	var wantBuf, gotBuf bytes.Buffer
	if err := trace.WriteJSONL(&wantBuf, coldEvents); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(&gotBuf, second); err != nil {
		t.Fatal(err)
	}
	if wantBuf.String() != gotBuf.String() {
		t.Fatalf("warm replan trace diverged:\ncold:\n%s\nwarm:\n%s", wantBuf.String(), gotBuf.String())
	}
}

// TestWarmParetoByteIdentical covers the multi-objective table: a warm
// ParetoPlans call must return the same front, plan for plan, as the cold
// call that filled the cache.
func TestWarmParetoByteIdentical(t *testing.T) {
	lib := textLib(t)
	est := textEstimator()
	p := newPlanner(t, lib, est)

	coldPlans, err := p.ParetoPlans(textWorkflow(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	warmPlans, err := p.ParetoPlans(textWorkflow(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheStats().Hits == 0 {
		t.Fatal("warm pareto build had no cache hits")
	}
	if len(warmPlans) != len(coldPlans) {
		t.Fatalf("front size changed: cold=%d warm=%d", len(coldPlans), len(warmPlans))
	}
	for i := range coldPlans {
		if got, want := warmPlans[i].Describe(), coldPlans[i].Describe(); got != want {
			t.Fatalf("front[%d] diverged:\ncold:\n%s\nwarm:\n%s", i, want, got)
		}
	}
}

// TestReplanSeedReuse: replanning twice with the same done-set must not
// allocate any new DP table rows — the seeds are memoized leaves, and the
// second build is served entirely from cache.
func TestReplanSeedReuse(t *testing.T) {
	p := newPlanner(t, textLib(t), textEstimator())
	done := []MaterializedIntermediate{{
		Dataset: "d1",
		Meta: metadata.MustParse(`
Engine.FS=HDFS
type=SequenceFile
`),
		Records: 800,
		Bytes:   800 * 4000,
	}}
	first, err := p.Replan(textWorkflow(t, 1000), done)
	if err != nil {
		t.Fatal(err)
	}
	rows := p.CacheStats().RowsAllocated
	second, err := p.Replan(textWorkflow(t, 1000), done)
	if err != nil {
		t.Fatal(err)
	}
	after := p.CacheStats()
	if after.RowsAllocated != rows {
		t.Fatalf("warm replan allocated %d new table rows", after.RowsAllocated-rows)
	}
	if after.Hits == 0 {
		t.Fatal("warm replan had no cache hits")
	}
	if first.Describe() != second.Describe() {
		t.Fatalf("replans diverged:\n%s\nvs\n%s", first.Describe(), second.Describe())
	}
}

// TestEpochInvalidation covers every external change a build boundary sees.
// The Epoch hook must still flush wholesale (epoch bump, next build
// all-miss); library mutations and availability flips evict nothing at all,
// missing only the keys they change and hitting again on a return to a state
// already planned, while every channel still yields correct fresh plans.
func TestEpochInvalidation(t *testing.T) {
	t.Run("epoch hook", func(t *testing.T) {
		var epoch uint64
		p := newPlanner(t, textLib(t), textEstimator(), func(c *Config) {
			c.Epoch = func() uint64 { return epoch }
		})
		if _, err := p.Plan(textWorkflow(t, 1000)); err != nil {
			t.Fatal(err)
		}
		before := p.CacheStats()
		epoch++
		if _, err := p.Plan(textWorkflow(t, 1000)); err != nil {
			t.Fatal(err)
		}
		after := p.CacheStats()
		if after.Epoch != before.Epoch+1 {
			t.Fatalf("epoch hook bump did not flush: before=%+v after=%+v", before, after)
		}
		if after.Hits != before.Hits {
			t.Fatalf("post-flush build hit the cache: before=%+v after=%+v", before, after)
		}
	})

	t.Run("library mutation", func(t *testing.T) {
		lib := textLib(t)
		p := newPlanner(t, lib, textEstimator())
		if _, err := p.Plan(textWorkflow(t, 1000)); err != nil {
			t.Fatal(err)
		}
		first := p.CacheStats()
		register := func(desc string) CacheStats {
			t.Helper()
			before := p.CacheStats()
			if _, err := lib.AddOperatorDescription("kmeans_spark", desc); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Plan(textWorkflow(t, 1000)); err != nil {
				t.Fatal(err)
			}
			after := p.CacheStats()
			if after.Epoch != before.Epoch || after.EvictedEntries != before.EvictedEntries ||
				after.PartialInvalidations != before.PartialInvalidations {
				t.Fatalf("library mutation flushed or evicted: before=%+v after=%+v", before, after)
			}
			return after
		}
		// Only the kmeans node's match list changed: its key misses and it is
		// re-evaluated, the tfidf subtree stays warm and hits.
		added := register(kmeansSparkDesc)
		if added.Hits != first.Hits+1 || added.Misses != first.Misses+1 {
			t.Fatalf("expected 1 warm hit + 1 re-evaluation: before=%+v after=%+v", first, added)
		}
		// Re-registering the same definition moves the library generation
		// but no match list: all hits, no row built.
		same := register(kmeansSparkDesc)
		if same.Hits != added.Hits+2 || same.Misses != added.Misses || same.RowsAllocated != added.RowsAllocated {
			t.Fatalf("identical re-registration was not all hits: before=%+v after=%+v", added, same)
		}
		// Taking kmeans_spark out of the kmeans matches returns to the first
		// state, whose results are still cached: all hits, no row built.
		back := register(kmeansSparkMovedDesc)
		if back.Hits != same.Hits+2 || back.Misses != same.Misses || back.RowsAllocated != same.RowsAllocated {
			t.Fatalf("return to the first library state was not all hits: before=%+v after=%+v", same, back)
		}
	})

	t.Run("availability flip", func(t *testing.T) {
		javaUp := true
		var mu sync.Mutex
		avail := func(name string) bool {
			mu.Lock()
			defer mu.Unlock()
			return javaUp || name != "Java"
		}
		est := textEstimator()
		p := newPlanner(t, textLib(t), est, func(c *Config) { c.EngineAvailable = avail })
		small, err := p.Plan(textWorkflow(t, 1000))
		if err != nil {
			t.Fatal(err)
		}
		if got := small.Engines(); len(got) != 1 || got[0] != "Java" {
			t.Fatalf("baseline small-input plan should be all-WEKA, got %v", got)
		}
		before := p.CacheStats()
		mu.Lock()
		javaUp = false
		mu.Unlock()
		flipped, err := p.Plan(textWorkflow(t, 1000))
		if err != nil {
			t.Fatal(err)
		}
		after := p.CacheStats()
		// No event was sent: the build boundary reads availability into the
		// keys. Both nodes match a Java operator, so both keys change and
		// miss; nothing is flushed, evicted or counted as an invalidation.
		if after.Epoch != before.Epoch || after.EvictedEntries != before.EvictedEntries ||
			after.PartialInvalidations != before.PartialInvalidations {
			t.Fatalf("availability flip flushed or evicted: before=%+v after=%+v", before, after)
		}
		if after.Misses != before.Misses+2 || after.Hits != before.Hits {
			t.Fatalf("expected both Java-matching nodes to miss: before=%+v after=%+v", before, after)
		}
		for _, e := range flipped.Engines() {
			if e == "Java" {
				t.Fatalf("plan still uses unavailable Java engine:\n%s", flipped.Describe())
			}
		}
		// Flipping back returns to the first state: its results are still
		// cached, so the build is all hits and the plan is the first one.
		mu.Lock()
		javaUp = true
		mu.Unlock()
		back, err := p.Plan(textWorkflow(t, 1000))
		if err != nil {
			t.Fatal(err)
		}
		final := p.CacheStats()
		if final.Misses != after.Misses || final.Hits != after.Hits+2 || final.RowsAllocated != after.RowsAllocated {
			t.Fatalf("flip back was not all hits: after=%+v final=%+v", after, final)
		}
		if back.Describe() != small.Describe() {
			t.Fatalf("plan after the flip back diverged:\nfirst:\n%s\nback:\n%s", small.Describe(), back.Describe())
		}
	})
}

// TestFlushCache checks the explicit flush used by cold-start benchmarks.
func TestFlushCache(t *testing.T) {
	p := newPlanner(t, textLib(t), textEstimator())
	if _, err := p.Plan(textWorkflow(t, 1000)); err != nil {
		t.Fatal(err)
	}
	if p.CacheStats().NodeEntries == 0 {
		t.Fatal("cold build cached nothing")
	}
	p.FlushCache()
	cs := p.CacheStats()
	if cs.NodeEntries != 0 {
		t.Fatalf("flush left %d node entries", cs.NodeEntries)
	}
	if cs.Epoch == 0 {
		t.Fatal("flush did not bump the epoch")
	}
	if _, err := p.Plan(textWorkflow(t, 1000)); err != nil {
		t.Fatal(err)
	}
	if got := p.CacheStats().Hits; got != 0 {
		t.Fatalf("post-flush build reported %d hits", got)
	}
}

// TestConcurrentPlansRace hammers one planner from several goroutines (a mix
// of Plan/Replan/ParetoPlans) while a fifth re-registers kmeans_spark in and
// out of the kmeans matches, so `go test -race` can catch cache and library
// races. Spark never wins, so every plan is the first one; at the end the
// warm plan must still be a cold planner's.
func TestConcurrentPlansRace(t *testing.T) {
	lib := textLib(t)
	p := newPlanner(t, lib, sparkEstimator())
	done := []MaterializedIntermediate{{
		Dataset: "d1",
		Meta: metadata.MustParse(`
Engine.FS=HDFS
type=SequenceFile
`),
		Records: 800,
		Bytes:   800 * 4000,
	}}
	want, err := p.Plan(textWorkflow(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				switch (i + j) % 3 {
				case 0:
					pl, err := p.Plan(textWorkflow(t, 1000))
					if err != nil {
						t.Error(err)
						return
					}
					if pl.Describe() != want.Describe() {
						t.Errorf("concurrent plan diverged:\n%s", pl.Describe())
						return
					}
				case 1:
					if _, err := p.Replan(textWorkflow(t, 1000), done); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, err := p.ParetoPlans(textWorkflow(t, 1000)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 10; j++ {
			desc := kmeansSparkDesc
			if j%2 == 1 {
				desc = kmeansSparkMovedDesc
			}
			if _, err := lib.AddOperatorDescription("kmeans_spark", desc); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	warm, err := p.Plan(textWorkflow(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := newPlanner(t, lib, sparkEstimator()).Plan(textWorkflow(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Describe() != cold.Describe() {
		t.Fatalf("warm plan diverged from cold after library churn:\ncold:\n%s\nwarm:\n%s", cold.Describe(), warm.Describe())
	}
}

// twins is src1 -> left -> dl, src2 -> right -> dr, dl,dr -> join -> out:
// left and right share one abstract description, and src1 and src2 differ
// only in name and path, so the two jobs compute the same thing. Their one
// implementation reads local files, so each source is moved first. prefix is
// put before every node name.
func twins(t *testing.T, prefix string) *workflow.Graph {
	t.Helper()
	g := workflow.NewGraph()
	for _, src := range []string{"src1", "src2"} {
		g.AddDataset(prefix+src, operator.NewDataset(prefix+src, metadata.MustParse(
			"Execution.path=/"+prefix+src+"\nConstraints.Engine.FS=HDFS\nOptimization.documents=100\nOptimization.size=1000")))
	}
	g.AddOperator(prefix+"left", operator.NewAbstract(prefix+"left", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=a")))
	g.AddOperator(prefix+"right", operator.NewAbstract(prefix+"right", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=a")))
	g.AddOperator(prefix+"join", operator.NewAbstract(prefix+"join", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=join")))
	for _, d := range []string{"dl", "dr", "out"} {
		g.AddDataset(prefix+d, nil)
	}
	for _, e := range [][2]string{
		{"src1", "left"}, {"left", "dl"},
		{"src2", "right"}, {"right", "dr"},
		{"dl", "join"}, {"dr", "join"}, {"join", "out"},
	} {
		if err := g.Connect(prefix+e[0], prefix+e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g.SetTarget(prefix + "out")
	return g
}

// TestTwinNodesShareOneResult checks that the memo keys name nothing while
// plans name everything: two identical jobs share one node result — one miss
// and one hit in the cold build — yet the plan holds one step per operator
// node, each with its own name, output dataset, moves, sources and
// dependencies. A renamed copy of the graph then hits on every node and
// plans the same steps under its own names, in Plan and in ParetoPlans.
func TestTwinNodesShareOneResult(t *testing.T) {
	lib := mustLib(t, map[string]string{
		"a_java":    "Constraints.Engine=Java\nConstraints.OpSpecification.Algorithm.name=a\nConstraints.Input0.Engine.FS=LFS\nConstraints.Output0.Engine.FS=LFS",
		"join_java": "Constraints.Engine=Java\nConstraints.OpSpecification.Algorithm.name=join\nConstraints.Input.number=2",
	})
	est := stubEstimator{
		"a_java":    {time: func(float64) float64 { return 5 }, outFactor: 1},
		"join_java": {time: func(float64) float64 { return 7 }, outFactor: 1},
	}
	p := newPlanner(t, lib, est)
	want := func(prefix string) string {
		return strings.NewReplacer("$", prefix).Replace(`plan for target $out: est time 13.5s, est cost 275.0 (objective 13.50)
  [0] move move->$left (1.5s) reads [$src1]
  [1] $left/a_java on Java (5.0s) after [0]
  [2] move move->$right (1.5s) reads [$src2]
  [3] $right/a_java on Java (5.0s) after [2]
  [4] $join/join_java on Java (7.0s) after [1 3]
`)
	}
	check := func(prefix string, plan *Plan) {
		t.Helper()
		if got := plan.Describe(); got != want(prefix) {
			t.Fatalf("plan:\n%s\nwant:\n%s", got, want(prefix))
		}
		for _, s := range plan.OperatorSteps() {
			out := map[string]string{"left": "dl", "right": "dr", "join": "out"}[s.WorkflowNode[len(prefix):]]
			if s.OutDataset != prefix+out {
				t.Errorf("step %s: OutDataset %q, want %q", s.Name, s.OutDataset, prefix+out)
			}
		}
	}

	plan, err := p.Plan(twins(t, ""))
	if err != nil {
		t.Fatal(err)
	}
	if cs := p.CacheStats(); cs.Misses != 2 || cs.Hits != 1 {
		t.Errorf("cold build: %d misses, %d hits; want 2 and 1 (left misses, right hits, join misses)", cs.Misses, cs.Hits)
	}
	check("", plan)

	plan, err = p.Plan(twins(t, "x_"))
	if err != nil {
		t.Fatal(err)
	}
	if cs := p.CacheStats(); cs.Misses != 2 || cs.Hits != 4 {
		t.Errorf("renamed graph: %d misses, %d hits in all; want 2 and 4", cs.Misses, cs.Hits)
	}
	check("x_", plan)

	front, err := p.ParetoPlans(twins(t, "y_"))
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 1 {
		t.Fatalf("Pareto front of %d plans, want 1", len(front))
	}
	check("y_", front[0])
}
