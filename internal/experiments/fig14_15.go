package experiments

import (
	"fmt"
	"hash/fnv"
	"time"

	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/pegasus"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/workflow"
)

// synthEstimator is a deterministic stand-in for trained models when
// benchmarking pure planner performance: estimates are a hash-derived
// function of operator name and input size, always feasible.
type synthEstimator struct{}

func (synthEstimator) Estimates(opName string, feats map[string]float64) planner.Estimates {
	h := fnv.New32a()
	h.Write([]byte(opName))
	t := 1 + float64(h.Sum32()%100) + feats["records"]/1e5
	return planner.Estimates{
		ExecTime: t, Cost: t * feats["nodes"],
		OutRecords: feats["records"] * 0.8, OutBytes: feats["bytes"] * 0.8,
		ExecTimeOK: true, CostOK: true,
	}
}

// pegasusPlanner builds a planner whose library holds m alternative engine
// implementations for every algorithm of the graph. Engines own distinct
// stores, so cross-engine hops require planner-inserted moves.
func pegasusPlanner(g *workflow.Graph, engines int) (*planner.Planner, error) {
	lib := operator.NewLibrary()
	for _, alg := range pegasus.Algorithms(g) {
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
	return planner.New(planner.Config{Library: lib, Estimator: synthEstimator{}})
}

// PlanPegasus builds the m-engine library for a generated Pegasus graph
// and runs one optimization pass, returning the planning duration — the
// unit of the Fig 14-15 measurements, exported for benchmarks.
func PlanPegasus(g *workflow.Graph, engines int) (time.Duration, error) {
	p, err := pegasusPlanner(g, engines)
	if err != nil {
		return 0, err
	}
	return planOnce(p, g)
}

// planOnce measures one optimization run.
func planOnce(p *planner.Planner, g *workflow.Graph) (time.Duration, error) {
	plan, err := p.Plan(g)
	if err != nil {
		return 0, err
	}
	return plan.PlanningTime, nil
}

// medianPlanTime plans the workflow reps times, each from an empty planner
// cache — Figs 14-15 measure an optimization, not a memo replay — and returns
// the median duration.
func medianPlanTime(p *planner.Planner, g *workflow.Graph, reps int) (time.Duration, error) {
	if reps < 1 {
		reps = 1
	}
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		p.FlushCache()
		d, err := planOnce(p, g)
		if err != nil {
			return 0, err
		}
		times = append(times, d)
	}
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j] < times[j-1]; j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
	return times[len(times)/2], nil
}

// Fig14 reproduces Figure 14: planner optimization time for the five
// Pegasus workflow categories, 30-1000 nodes, with 4 and 8 alternative
// engines per operator.
func Fig14(sizes []int, engineCounts []int, reps int) ([]*Report, error) {
	if len(sizes) == 0 {
		sizes = []int{30, 100, 300, 1000}
	}
	if len(engineCounts) == 0 {
		engineCounts = []int{4, 8}
	}
	var reports []*Report
	for _, m := range engineCounts {
		r := &Report{
			ID:     fmt.Sprintf("FIG14-%dengines", m),
			Title:  fmt.Sprintf("Workflow optimization time, %d engines per operator", m),
			XLabel: "workflow nodes",
			YLabel: "optimization time (s)",
		}
		for _, cat := range pegasus.Categories() {
			var pts []Point
			for _, size := range sizes {
				g, err := pegasus.Generate(cat, size)
				if err != nil {
					return nil, err
				}
				p, err := pegasusPlanner(g, m)
				if err != nil {
					return nil, err
				}
				d, err := medianPlanTime(p, g, reps)
				if err != nil {
					return nil, fmt.Errorf("%s/%d/%d engines: %w", cat, size, m, err)
				}
				pts = append(pts, Point{X: float64(size), Y: d.Seconds()})
			}
			r.AddSeries(string(cat), pts...)
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// Fig15 reproduces Figure 15: optimization time for Montage and
// Epigenomics while ranging the number of engines (2-8).
func Fig15(sizes []int, engineCounts []int, reps int) ([]*Report, error) {
	if len(sizes) == 0 {
		sizes = []int{30, 100, 300, 1000}
	}
	if len(engineCounts) == 0 {
		engineCounts = []int{2, 4, 6, 8}
	}
	var reports []*Report
	for _, cat := range []pegasus.Category{pegasus.Montage, pegasus.Epigenomics} {
		r := &Report{
			ID:     "FIG15-" + string(cat),
			Title:  fmt.Sprintf("Optimization time for %s vs engine count", cat),
			XLabel: "workflow nodes",
			YLabel: "optimization time (s)",
		}
		for _, m := range engineCounts {
			var pts []Point
			for _, size := range sizes {
				g, err := pegasus.Generate(cat, size)
				if err != nil {
					return nil, err
				}
				p, err := pegasusPlanner(g, m)
				if err != nil {
					return nil, err
				}
				d, err := medianPlanTime(p, g, reps)
				if err != nil {
					return nil, err
				}
				pts = append(pts, Point{X: float64(size), Y: d.Seconds()})
			}
			r.AddSeries(fmt.Sprintf("%d engines", m), pts...)
		}
		reports = append(reports, r)
	}
	return reports, nil
}
