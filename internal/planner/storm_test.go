package planner

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/workflow"
)

// stormImpls are the two implementations every storm operator has: a
// distributed one on HDFS and a centralized one on local arff, so the choice
// between them, and the moves it implies, turns on the estimates.
var stormImpls = []struct{ suffix, engine, fs, typ string }{
	{"hadoop", "Hadoop", "HDFS", "SequenceFile"},
	{"java", "Java", "LFS", "arff"},
}

// stormLib registers both implementations of each storm operator; join reads
// two inputs.
func stormLib(t *testing.T) *operator.Library {
	t.Helper()
	lib := operator.NewLibrary()
	for _, alg := range []string{"a", "b", "c", "d", "join"} {
		inputs := 1
		if alg == "join" {
			inputs = 2
		}
		for _, im := range stormImpls {
			desc := fmt.Sprintf("Constraints.Engine=%s\nConstraints.OpSpecification.Algorithm.name=%s\n"+
				"Constraints.Input.number=%d\nConstraints.Output.number=1\n"+
				"Constraints.Output0.Engine.FS=%s\nConstraints.Output0.type=%s\n", im.engine, alg, inputs, im.fs, im.typ)
			for i := 0; i < inputs; i++ {
				desc += fmt.Sprintf("Constraints.Input%d.Engine.FS=%s\nConstraints.Input%d.type=%s\n", i, im.fs, i, im.typ)
			}
			if _, err := lib.AddOperatorDescription(alg+"_"+im.suffix, desc); err != nil {
				t.Fatal(err)
			}
		}
	}
	return lib
}

// stormGraph builds src -> ops[0] -> dataset -> ... over the given edges and
// sets target. Abstract operators are named by their algorithm.
func stormGraph(t *testing.T, records int64, ops []string, edges [][2]string, target string) *workflow.Graph {
	t.Helper()
	g := workflow.NewGraph()
	src := operator.NewDataset("src", metadata.MustParse("Constraints.Engine.FS=HDFS\nConstraints.type=SequenceFile\nExecution.path=hdfs:///src"))
	src.Meta.Set("Optimization.documents", itoa(records))
	src.Meta.Set("Optimization.size", itoa(records*4000))
	if _, err := g.AddDataset("src", src); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		inputs := "1"
		if op == "join" {
			inputs = "2"
		}
		abs := operator.NewAbstract(op, metadata.MustParse("Constraints.OpSpecification.Algorithm.name="+op+
			"\nConstraints.Input.number="+inputs+"\nConstraints.Output.number=1"))
		if _, err := g.AddOperator(op, abs); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddDataset("d"+op, nil); err != nil {
			t.Fatal(err)
		}
		if err := g.Connect(op, "d"+op); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range edges {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetTarget(target); err != nil {
		t.Fatal(err)
	}
	return g
}

// stormDiamond is the three-level DAG: a feeds b and c, which join merges.
func stormDiamond(t *testing.T) *workflow.Graph {
	return stormGraph(t, 2000, []string{"a", "b", "c", "join"},
		[][2]string{{"src", "a"}, {"da", "b"}, {"da", "c"}, {"db", "join"}, {"dc", "join"}}, "djoin")
}

// stormChain shares the diamond's upstream operator a: planning it
// re-evaluates a after a retrain while the diamond's downstream results stay
// cached.
func stormChain(t *testing.T) *workflow.Graph {
	return stormGraph(t, 2000, []string{"a", "d"}, [][2]string{{"src", "a"}, {"da", "d"}}, "dd")
}

// stormModels is the storm's external state: per-implementation estimate
// scales and provisioned node counts, both moved by retrains. Neither time
// nor cost reads the node count, so a node-count retrain changes a step's
// resources alone.
type stormModels struct {
	scale map[string]float64
	nodes map[string]int
}

func (m *stormModels) Estimates(opName string, feats map[string]float64) Estimates {
	s, ok := m.scale[opName]
	if !ok {
		return Estimates{}
	}
	rec := feats["records"]
	t := s * (10 + rec/200)
	return Estimates{ExecTime: t, Cost: 2 * t, OutRecords: rec, OutBytes: feats["bytes"], ExecTimeOK: true, CostOK: true}
}

func (m *stormModels) resources(mo *operator.Materialized, _, _ int64) Resources {
	return Resources{Nodes: m.nodes[mo.Name], CoresPerN: 2, MemMBPerN: 2048}
}

// stormRun plans g with p both ways and renders everything a caller or the
// trace sees: every field of every step, the plans' totals and the
// plan.start/plan.finish JSONL.
type stormRun struct {
	plan   *Plan
	pareto []*Plan
	jsonl  string
}

func runStorm(t *testing.T, p *Planner, tr *captureTracer, g *workflow.Graph) stormRun {
	t.Helper()
	from := len(tr.events)
	plan, err := p.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	pareto, err := p.ParetoPlans(g)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := trace.WriteJSONL(&b, tr.events[from:]); err != nil {
		t.Fatal(err)
	}
	return stormRun{plan, pareto, b.String()}
}

// samePlan reports the first difference between two plans: a step field,
// the step count or a total. PlanningTime is wall clock and left out.
func samePlan(warm, cold *Plan) error {
	if len(warm.Steps) != len(cold.Steps) {
		return fmt.Errorf("%d steps, cold %d", len(warm.Steps), len(cold.Steps))
	}
	for i, s := range warm.Steps {
		if !reflect.DeepEqual(*s, *cold.Steps[i]) {
			return fmt.Errorf("step %d:\nwarm %+v\ncold %+v", i, *s, *cold.Steps[i])
		}
	}
	if warm.EstObjective != cold.EstObjective || warm.EstTimeSec != cold.EstTimeSec ||
		warm.EstCost != cold.EstCost || warm.Target != cold.Target {
		return fmt.Errorf("totals (%v, %v, %v, %s), cold (%v, %v, %v, %s)",
			warm.EstObjective, warm.EstTimeSec, warm.EstCost, warm.Target,
			cold.EstObjective, cold.EstTimeSec, cold.EstCost, cold.Target)
	}
	return nil
}

// TestRetrainStorm is the oracle for retrain-scoped eviction: a retrain
// evicts only the node results that estimated the retrained operator, and
// nothing downstream. A warm planner planning a three-level diamond and a
// chain that shares its upstream operator, through a storm of retrains of
// random operators — some moving nothing, some moving estimates, some moving
// only the provisioned resources while the estimates stay fixed — must give,
// after every step, every step field, every total, the Pareto plans and the
// trace JSONL of a cold planner in the same state. Downstream results outlive
// upstream retrains, so a warm result that reads a superseded upstream entry
// must extract what its replacement would.
func TestRetrainStorm(t *testing.T) {
	lib := stormLib(t)
	var names []string
	m := &stormModels{scale: map[string]float64{}, nodes: map[string]int{}}
	for _, alg := range []string{"a", "b", "c", "d", "join"} {
		for _, im := range stormImpls {
			name := alg + "_" + im.suffix
			names = append(names, name)
			m.scale[name], m.nodes[name] = 1, 4
		}
	}
	m.scale["a_java"], m.scale["b_hadoop"] = 0.8, 1.3
	build := func(tr *captureTracer) *Planner {
		return newPlanner(t, lib, m, func(c *Config) { c.Resources = m.resources; c.Tracer = tr })
	}
	warmTr := &captureTracer{}
	warm := build(warmTr)
	rng := rand.New(rand.NewSource(45))
	graphs := []func(*testing.T) *workflow.Graph{stormDiamond, stormChain}
	var kinds [3]int
	for step := 0; step < 200; step++ {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			op, kind := names[rng.Intn(len(names))], rng.Intn(3)
			kinds[kind]++
			switch kind {
			case 1: // the estimates move
				m.scale[op] = 0.5 + rng.Float64()
			case 2: // the resources move, the estimates stay
				m.nodes[op] = 2 + rng.Intn(7)
			}
			warm.ProfilerRetrain(op)
		}
		for _, gi := range rng.Perm(len(graphs)) {
			got := runStorm(t, warm, warmTr, graphs[gi](t))
			coldTr := &captureTracer{}
			want := runStorm(t, build(coldTr), coldTr, graphs[gi](t))
			if err := samePlan(got.plan, want.plan); err != nil {
				t.Fatalf("step %d, graph %d: plan: %v\nwarm:\n%s\ncold:\n%s", step, gi, err, got.plan.Describe(), want.plan.Describe())
			}
			if len(got.pareto) != len(want.pareto) {
				t.Fatalf("step %d, graph %d: %d Pareto plans, cold %d", step, gi, len(got.pareto), len(want.pareto))
			}
			for i := range got.pareto {
				if err := samePlan(got.pareto[i], want.pareto[i]); err != nil {
					t.Fatalf("step %d, graph %d: Pareto plan %d: %v", step, gi, i, err)
				}
			}
			if got.jsonl != want.jsonl {
				t.Fatalf("step %d, graph %d: trace diverged:\nwarm:\n%s\ncold:\n%s", step, gi, got.jsonl, want.jsonl)
			}
		}
	}
	cs := warm.CacheStats()
	if cs.EvictedEntries == 0 || cs.Hits == 0 || cs.Epoch != 0 || kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
		t.Fatalf("storm did not exercise evictions and warm hits under every retrain kind: %+v, kinds %v", cs, kinds)
	}
}
