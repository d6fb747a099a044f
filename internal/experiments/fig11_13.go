package experiments

import (
	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
)

// singleEngineSec computes the "run the whole workflow natively on one
// engine" baseline: the sum of simulated operator runs on that engine,
// without any IReS machinery. Runs draw from the same run-to-run noise
// distribution as IReS-managed executions, keeping the comparison fair.
// ok=false marks an infeasible run (OOM or engine down).
func singleEngineSec(env *engine.Environment, eng string, steps []baselineStep) (float64, bool) {
	total := 0.0
	for _, s := range steps {
		res := engine.StandardCluster
		if p, ok := env.Engine(eng); ok && p.Centralized {
			res = engine.SingleNode
		}
		run, err := env.Execute(eng, s.alg, engine.Input{Records: s.records, Bytes: s.bytes, Params: s.params}, res)
		if err != nil {
			return 0, false
		}
		total += run.ExecTimeSec
	}
	return total, true
}

type baselineStep struct {
	alg     string
	records int64
	bytes   int64
	params  map[string]float64
}

// iresRunSec plans and executes the workflow on the platform, returning the
// simulated makespan.
func iresRunSec(p *ires.Platform, wf *ires.Workflow) (float64, bool) {
	plan, err := p.Plan(wf)
	if err != nil {
		return 0, false
	}
	res, err := p.Execute(wf, plan)
	if err != nil {
		return 0, false
	}
	return res.Makespan.Seconds(), true
}

// Fig11 reproduces Figure 11: graph analytics (PageRank over CDR graphs)
// execution time vs edge count, for Java, Hama, Spark and IReS.
func Fig11(seed int64) (*Report, error) {
	p, err := GraphPlatform(seed)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "FIG11",
		Title:  "Graph analytics: execution time vs input size (single engines vs IReS)",
		XLabel: "edges",
		YLabel: "execution time (s)",
	}
	sizes := []int64{10_000, 100_000, 1_000_000, 10_000_000, 100_000_000}
	for _, eng := range []string{ires.EngineJava, ires.EngineHama, ires.EngineSpark} {
		var pts []Point
		for _, n := range sizes {
			steps := []baselineStep{{alg: engine.AlgPagerank, records: n, bytes: n * 40,
				params: map[string]float64{"iterations": 10}}}
			sec, ok := singleEngineSec(p.Env, eng, steps)
			pts = append(pts, Point{X: float64(n), Y: sec, Failed: !ok})
		}
		r.AddSeries(eng, pts...)
	}
	var pts []Point
	for _, n := range sizes {
		wf, err := GraphWorkflow(p, n)
		if err != nil {
			return nil, err
		}
		sec, ok := iresRunSec(p, wf)
		pts = append(pts, Point{X: float64(n), Y: sec, Failed: !ok})
	}
	r.AddSeries("IReS", pts...)
	annotateWinner(r, sizes)
	return r, nil
}

// Fig12 reproduces Figure 12: text analytics (tf-idf -> k-means) execution
// time vs document count, for scikit, Spark and IReS (which may go hybrid).
func Fig12(seed int64) (*Report, error) {
	p, err := TextPlatform(seed)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "FIG12",
		Title:  "Text analytics: execution time vs input size (single engines vs IReS)",
		XLabel: "documents",
		YLabel: "execution time (s)",
	}
	sizes := []int64{1_000, 3_000, 5_000, 10_000, 30_000, 100_000, 1_000_000}
	for _, eng := range []string{ires.EngineScikit, ires.EngineSpark} {
		var pts []Point
		for _, n := range sizes {
			steps := []baselineStep{
				{alg: engine.AlgTFIDF, records: n, bytes: n * 5_000},
				{alg: engine.AlgKMeans, records: n, bytes: n * 2_500},
			}
			sec, ok := singleEngineSec(p.Env, eng, steps)
			pts = append(pts, Point{X: float64(n), Y: sec, Failed: !ok})
		}
		r.AddSeries(eng, pts...)
	}
	var pts []Point
	hybridAt := []int64{}
	for _, n := range sizes {
		wf, err := TextWorkflow(p, n)
		if err != nil {
			return nil, err
		}
		plan, err := p.Plan(wf)
		if err != nil {
			pts = append(pts, Point{X: float64(n), Failed: true})
			continue
		}
		if len(plan.Engines()) > 1 {
			hybridAt = append(hybridAt, n)
		}
		res, err := p.Execute(wf, plan)
		if err != nil {
			pts = append(pts, Point{X: float64(n), Failed: true})
			continue
		}
		pts = append(pts, Point{X: float64(n), Y: res.Makespan.Seconds()})
	}
	r.AddSeries("IReS", pts...)
	if len(hybridAt) > 0 {
		r.Note("hybrid multi-engine plans chosen at %v documents", hybridAt)
	}
	annotateWinner(r, sizes)
	return r, nil
}

// Fig13 reproduces Figure 13: the relational workflow (three SPJ queries
// over PostgreSQL/MemSQL/HDFS-resident tables plus a combining join) vs
// TPC-H scale, for each single engine and IReS.
func Fig13(seed int64) (*Report, error) {
	p, err := SQLPlatform(seed)
	if err != nil {
		return nil, err
	}
	if err := RegisterCombineOps(p); err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "FIG13",
		Title:  "Relational analytics: execution time vs TPC-H scale (single engines vs IReS)",
		XLabel: "TPCH scale (GB)",
		YLabel: "execution time (s)",
	}
	scales := []float64{1, 2, 5, 10, 20, 50}
	rows := func(gb, frac float64) int64 { return int64(gb * 6_000_000 * frac) }

	for _, eng := range []string{ires.EnginePostgreSQL, ires.EngineMemSQL, ires.EngineSpark} {
		var pts []Point
		for _, gb := range scales {
			// Native single-engine run: all three queries plus the final
			// join execute on this engine; foreign tables must be shipped
			// in first.
			steps := []baselineStep{
				{alg: engine.AlgSQLQ1, records: rows(gb, 0.026), bytes: rows(gb, 0.026) * 170},
				{alg: engine.AlgSQLQ2, records: rows(gb, 0.07), bytes: rows(gb, 0.07) * 170},
				{alg: engine.AlgSQLQ3, records: rows(gb, 1.0), bytes: rows(gb, 1.0) * 170},
				{alg: engine.AlgJoin, records: rows(gb, 0.05), bytes: rows(gb, 0.05) * 170},
			}
			sec, ok := singleEngineSec(p.Env, eng, steps)
			if ok {
				// Data movement into the engine: everything not already
				// resident there (approximate: 2 of the 3 table groups).
				foreignBytes := int64(0)
				switch eng {
				case ires.EnginePostgreSQL:
					foreignBytes = (rows(gb, 0.07) + rows(gb, 1.0)) * 170
				case ires.EngineMemSQL:
					foreignBytes = (rows(gb, 0.026) + rows(gb, 1.0)) * 170
				case ires.EngineSpark:
					foreignBytes = (rows(gb, 0.026) + rows(gb, 0.07)) * 170
				}
				sec += p.Env.TransferSec(foreignBytes)
			}
			pts = append(pts, Point{X: gb, Y: sec, Failed: !ok})
		}
		r.AddSeries(eng, pts...)
	}

	var pts []Point
	for _, gb := range scales {
		wf, err := SQLWorkflow(p, gb)
		if err != nil {
			return nil, err
		}
		sec, ok := iresRunSec(p, wf)
		pts = append(pts, Point{X: gb, Y: sec, Failed: !ok})
	}
	r.AddSeries("IReS", pts...)
	r.Note("IReS runs q1 in PostgreSQL, q2 in MemSQL, q3 in Spark (minimal movements)")
	annotateWinner(r, nil)
	return r, nil
}

// annotateWinner records, per x, the fastest series — quick textual
// confirmation of who wins where.
func annotateWinner(r *Report, _ []int64) {
	if len(r.Series) == 0 {
		return
	}
	xs := map[float64]bool{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	domain := make([]float64, 0, len(xs))
	for x := range xs {
		domain = append(domain, x)
	}
	sortFloats(domain)
	for _, x := range domain {
		bestLabel := ""
		bestY := 0.0
		for _, s := range r.Series {
			if y, ok := s.YAt(x); ok && (bestLabel == "" || y < bestY) {
				bestLabel, bestY = s.Label, y
			}
		}
		if bestLabel != "" {
			r.Note("x=%s fastest: %s (%.1fs)", fmtNum(x), bestLabel, bestY)
		}
	}
}
