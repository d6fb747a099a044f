package planner

import (
	"bytes"
	"slices"
	"testing"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/trace"
)

// prefitProbe is the storm's models as a Prefitter that keeps the last
// names it was handed, so a test can tell whose slice they were.
type prefitProbe struct {
	*stormModels
	last []string
}

func (p *prefitProbe) Prefit(names []string) { p.last = names }

// TestBuildRecordMatchesFreshPlanner is the differential test of the build
// record. One long-lived planner plans one long-lived graph, Plan and
// ParetoPlans, through every kind of change a record must notice: a source
// dataset's records and bytes, an intermediate dataset materialized and
// back, nodes and edges added, the target moved, an operator registered, an
// engine flapped, retrains that evict and one that evicts nothing,
// FlushCache and the size-bound flush. After each change, and again when the
// record serves the repeat, every step field, every total, the Prefit names
// and the trace JSONL must equal those of a fresh planner in the same state.
// A repeat must be served by the record, and the first build after a change
// that moves what a build reads must not be.
func TestBuildRecordMatchesFreshPlanner(t *testing.T) {
	lib := stormLib(t)
	m := &stormModels{scale: map[string]float64{}, nodes: map[string]int{}}
	for _, alg := range []string{"a", "b", "c", "d", "join"} {
		for _, im := range stormImpls {
			m.scale[alg+"_"+im.suffix], m.nodes[alg+"_"+im.suffix] = 1, 4
		}
	}
	m.scale["a_java"], m.scale["b_hadoop"] = 0.8, 1.3
	down := ""
	build := func(tr *captureTracer, probe *prefitProbe) *Planner {
		return newPlanner(t, lib, probe, func(c *Config) {
			c.Resources = m.resources
			c.Tracer = tr
			c.EngineAvailable = func(name string) bool { return name != down }
		})
	}
	warmTr, warmProbe := &captureTracer{}, &prefitProbe{stormModels: m}
	warm := build(warmTr, warmProbe)
	g := stormDiamond(t)

	// served reports whether the last build of g of this kind was the
	// record's: the Prefitter was handed the record's own names.
	served := func(pareto bool) bool {
		rec := warm.cache.records[recordKey{g.ID(), pareto}]
		return rec != nil && len(rec.prefit) > 0 && len(warmProbe.last) > 0 && &warmProbe.last[0] == &rec.prefit[0]
	}
	compare := func(what string, wantServed bool) {
		t.Helper()
		from := len(warmTr.events)
		plan, err := warm.Plan(g)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		planServed, planNames := served(false), slices.Clone(warmProbe.last)
		pareto, err := warm.ParetoPlans(g)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := [2]bool{planServed, served(true)}; got != [2]bool{wantServed, wantServed} {
			t.Fatalf("%s: served by the record (Plan, ParetoPlans) %v, want %v", what, got, wantServed)
		}
		got := stormRun{plan, pareto, ""}
		if got.jsonl, err = traceJSONLOf(warmTr.events[from:]); err != nil {
			t.Fatal(err)
		}
		coldTr, coldProbe := &captureTracer{}, &prefitProbe{stormModels: m}
		cold := build(coldTr, coldProbe)
		coldPlan, err := cold.Plan(g)
		if err != nil {
			t.Fatalf("%s: fresh planner: %v", what, err)
		}
		coldNames := slices.Clone(coldProbe.last)
		coldPareto, err := cold.ParetoPlans(g)
		if err != nil {
			t.Fatalf("%s: fresh planner: %v", what, err)
		}
		want := stormRun{coldPlan, coldPareto, ""}
		if want.jsonl, err = traceJSONLOf(coldTr.events); err != nil {
			t.Fatal(err)
		}
		if err := samePlan(got.plan, want.plan); err != nil {
			t.Fatalf("%s: plan: %v\nwarm:\n%s\nfresh:\n%s", what, err, got.plan.Describe(), want.plan.Describe())
		}
		if len(got.pareto) != len(want.pareto) {
			t.Fatalf("%s: %d Pareto plans, fresh %d", what, len(got.pareto), len(want.pareto))
		}
		for i := range got.pareto {
			if err := samePlan(got.pareto[i], want.pareto[i]); err != nil {
				t.Fatalf("%s: Pareto plan %d: %v", what, i, err)
			}
		}
		if !slices.Equal(planNames, coldNames) || !slices.Equal(warmProbe.last, coldProbe.last) {
			t.Fatalf("%s: Prefit names %v / %v, fresh %v / %v", what, planNames, warmProbe.last, coldNames, coldProbe.last)
		}
		if got.jsonl != want.jsonl {
			t.Fatalf("%s: trace diverged:\nwarm:\n%s\nfresh:\n%s", what, got.jsonl, want.jsonl)
		}
	}
	// step applies one change, then compares the build after it (served by
	// the record only when the change moved nothing a build reads) and its
	// repeat (always served).
	step := func(what string, servedAfter bool, change func()) {
		t.Helper()
		change()
		compare(what, servedAfter)
		compare(what+", repeated", true)
	}
	dataset := func(name string) *operator.Dataset {
		n, ok := g.Node(name)
		if !ok {
			t.Fatalf("no dataset %s", name)
		}
		return n.Dataset
	}

	compare("first build", false)
	compare("second build", true)
	step("source records", false, func() { dataset("src").Meta.Set("Optimization.documents", "5000") })
	step("source bytes", false, func() { dataset("src").Meta.Set("Optimization.size", "30000000") })
	step("source rewritten alike", true, func() { dataset("src").Meta.Set("Optimization.size", "30000000") })
	step("intermediate materialized", false, func() {
		meta := dataset("db").Meta
		for _, kv := range [][2]string{
			{"Constraints.Engine.FS", "LFS"}, {"Constraints.type", "arff"}, {"Execution.path", "/db"},
			{"Optimization.documents", "10"}, {"Optimization.size", "100"},
		} {
			meta.Set(kv[0], kv[1])
		}
	})
	step("intermediate dematerialized", false, func() { dataset("db").Meta.Set("Execution.path", "") })
	// The twin branch gets the very leaf db had: the leaves are the same
	// entries, in another dataset.
	step("materialization moved to the twin branch", false, func() {
		dataset("db").Meta.Set("Execution.path", "/db")
		if _, err := warm.Plan(g); err != nil {
			t.Fatal(err)
		}
		dataset("db").Meta.Set("Execution.path", "")
		meta := dataset("dc").Meta
		for _, kv := range [][2]string{
			{"Constraints.Engine.FS", "LFS"}, {"Constraints.type", "arff"}, {"Execution.path", "/dc"},
			{"Optimization.documents", "10"}, {"Optimization.size", "100"},
		} {
			meta.Set(kv[0], kv[1])
		}
	})
	step("twin branch dematerialized", false, func() { dataset("dc").Meta.Set("Execution.path", "") })
	step("operator and edges added", false, func() {
		abs := operator.NewAbstract("d", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=d"+
			"\nConstraints.Input.number=1\nConstraints.Output.number=1"))
		if _, err := g.AddOperator("d", abs); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddDataset("dd", nil); err != nil {
			t.Fatal(err)
		}
		for _, e := range [][2]string{{"djoin", "d"}, {"d", "dd"}} {
			if err := g.Connect(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
	})
	step("target moved", false, func() {
		if err := g.SetTarget("dd"); err != nil {
			t.Fatal(err)
		}
	})
	step("target field written", false, func() { g.Target = "djoin" }) // the structure version stays
	step("target field written back", false, func() { g.Target = "dd" })
	// On an engine the library knows already, so only the library
	// generation tells the builds apart.
	step("operator registered", false, func() {
		desc := "Constraints.Engine=Hadoop\nConstraints.OpSpecification.Algorithm.name=b\n" +
			"Constraints.Input.number=1\nConstraints.Output.number=1\n" +
			"Constraints.Input0.Engine.FS=HDFS\nConstraints.Input0.type=SequenceFile\n" +
			"Constraints.Output0.Engine.FS=HDFS\nConstraints.Output0.type=SequenceFile\n"
		if _, err := lib.AddOperatorDescription("b_hadoop2", desc); err != nil {
			t.Fatal(err)
		}
		m.scale["b_hadoop2"], m.nodes["b_hadoop2"] = 0.6, 4
	})
	step("engine down", false, func() { down = "Hadoop" })
	step("engine up", false, func() { down = "" })
	step("retrain", false, func() {
		m.scale["b_hadoop"] = 0.9
		warm.ProfilerRetrain("b_hadoop")
	})
	step("retrain of an operator nothing estimated", true, func() { warm.ProfilerRetrain("unplanned") })
	// A flush drops every record: a record kept would hold its old rows
	// alive, although the new leaves would never match it.
	step("FlushCache", false, func() {
		warm.FlushCache()
		if n := len(warm.cache.records); n != 0 {
			t.Fatalf("FlushCache kept %d records", n)
		}
	})
	old := maxCachedNodes
	defer func() { maxCachedNodes = old }()
	step("size-bound flush", false, func() {
		maxCachedNodes = len(warm.cache.nodes) - 1
		if _, err := warm.Plan(stormChain(t)); err != nil { // the flush, and a record of another graph
			t.Fatal(err)
		}
		maxCachedNodes = old
		if n := len(warm.cache.records); n != 1 {
			t.Fatalf("the size-bound flush kept %d records besides the one built after it", n-1)
		}
	})
	if cs := warm.CacheStats(); cs.Epoch != 2 || cs.EvictedEntries == 0 {
		t.Fatalf("the changes did not flush twice and evict: %+v", cs)
	}
}

// traceJSONLOf renders events as the trace's JSONL.
func traceJSONLOf(events []trace.Event) (string, error) {
	var b bytes.Buffer
	err := trace.WriteJSONL(&b, events)
	return b.String(), err
}
