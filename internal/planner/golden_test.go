package planner

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/asap-project/ires/internal/pegasus"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/workflow"
)

var updatePlans = flag.Bool("update", false, "rewrite testdata/pegasus_plans.golden")

// tradeoffEstimator prices the four engines of pegasusPlanner against their
// speed: engine0 is the fastest and dearest, engine3 the slowest and cheapest,
// so ParetoPlans returns fronts of several plans.
type tradeoffEstimator struct{}

func (tradeoffEstimator) Estimates(opName string, feats map[string]float64) Estimates {
	e := int(opName[len(opName)-1] - '0')
	speed := [...]float64{1, 1.6, 2.3, 3.1}[e]
	price := [...]float64{4, 2.5, 1.5, 1}[e]
	t := (1 + float64(len(opName)%5) + feats["records"]/1e5) * speed
	return Estimates{
		ExecTime: t, Cost: t * price,
		OutRecords: feats["records"] * 0.8, OutBytes: feats["bytes"] * 0.8,
		ExecTimeOK: true, CostOK: true,
	}
}

// TestPegasusPlansGolden pins the plans and the plan.start/plan.finish trace
// bytes of the five Pegasus categories at two sizes, each planned four ways
// on one planner, each on a freshly generated graph: cold, warm, with the
// engine of the cold plan's first operator step down, and as a Replan (all
// engines up) from the outputs of the cold plan's first third of operator
// steps. Plan and ParetoPlans are rendered by Describe; the engines trade
// time for money (tradeoffEstimator). The file was written
// by the planner whose memo keys named nodes and datasets, so it holds the
// structural memo to that planner's output byte for byte.
func TestPegasusPlansGolden(t *testing.T) {
	var b strings.Builder
	for _, cat := range pegasus.Categories() {
		for _, size := range []int{8, 16} {
			fmt.Fprintf(&b, "### %s/%d\n", cat, size)
			goldenScenario(t, &b, cat, size)
		}
	}
	path := filepath.Join("testdata", "pegasus_plans.golden")
	if *updatePlans {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: first difference at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// goldenScenario renders the four ways of planning one graph shape.
func goldenScenario(t *testing.T, b *strings.Builder, cat pegasus.Category, size int) {
	t.Helper()
	graph := func() *workflow.Graph {
		g, err := pegasus.Generate(cat, size)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	rec := trace.NewRecorder(0)
	down := ""
	p := pegasusPlanner(t, graph(), func(c *Config) {
		c.Estimator = tradeoffEstimator{}
		c.Tracer = rec
		c.EngineAvailable = func(name string) bool { return name != down }
	})
	both := func(way string) *Plan {
		plan, err := p.Plan(graph())
		if err != nil {
			t.Fatalf("%s %s/%d: %v", way, cat, size, err)
		}
		fmt.Fprintf(b, "== %s Plan\n%s", way, plan.Describe())
		front, err := p.ParetoPlans(graph())
		if err != nil {
			t.Fatalf("%s %s/%d Pareto: %v", way, cat, size, err)
		}
		for i, pl := range front {
			fmt.Fprintf(b, "== %s ParetoPlans[%d]\n%s", way, i, pl.Describe())
		}
		return plan
	}
	cold := both("cold")
	both("warm")
	ops := cold.OperatorSteps()
	down = ops[0].Engine
	both("down " + down)
	down = ""
	var done []MaterializedIntermediate
	for _, s := range ops[:len(ops)/3] {
		done = append(done, MaterializedIntermediate{Dataset: s.OutDataset, Meta: s.OutMeta, Records: s.OutRecords, Bytes: s.OutBytes})
	}
	plan, err := p.Replan(graph(), done)
	if err != nil {
		t.Fatalf("replan %s/%d: %v", cat, size, err)
	}
	fmt.Fprintf(b, "== replan from %d datasets\n%s", len(done), plan.Describe())
	b.WriteString("== trace\n")
	b.WriteString(traceJSONL(t, rec))
}
