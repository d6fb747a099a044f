package experiments

import (
	"fmt"

	"github.com/asap-project/ires/internal/musqle"
	"github.com/asap-project/ires/internal/sqldata"
)

// MusqleOptTime reproduces MuSQLE Fig 4: optimization time vs query size
// (2-7 tables) for the real three-engine stack.
func MusqleOptTime(seed int64, reps int) (*Report, error) {
	cat := musqle.NewCatalog()
	if err := cat.LoadTPCH(sqldata.Generate(0.002, seed)); err != nil {
		return nil, err
	}
	reg := musqle.DefaultRegistry()
	opt := musqle.NewOptimizer(cat, reg)

	r := &Report{
		ID:     "MQ-F4",
		Title:  "MuSQLE optimization time vs query size (3 engines)",
		XLabel: "tables in query",
		YLabel: "optimization time (s)",
	}
	var pts []Point
	for n := 2; n <= 7; n++ {
		total := 0.0
		for rep := 0; rep < reps; rep++ {
			q, err := musqle.GenerateQuery(cat, n, rep%2 == 0, seed+int64(n*100+rep))
			if err != nil {
				return nil, err
			}
			plan, err := opt.Optimize(q)
			if err != nil {
				return nil, fmt.Errorf("opt %d tables: %w", n, err)
			}
			total += plan.OptimizationTime.Seconds()
		}
		pts = append(pts, Point{X: float64(n), Y: total / float64(reps)})
	}
	r.AddSeries("3 engines", pts...)
	return r, nil
}

// MusqleEngineScaling reproduces MuSQLE Fig 5: optimization time vs query
// size for 2-6 synthetic engine APIs.
func MusqleEngineScaling(seed int64, reps int) (*Report, error) {
	r := &Report{
		ID:     "MQ-F5",
		Title:  "MuSQLE optimization time vs engine count (synthetic APIs)",
		XLabel: "tables in query",
		YLabel: "optimization time (s)",
	}
	for _, engines := range []int{2, 4, 6} {
		reg := musqle.SyntheticRegistry(engines)
		cat := musqle.NewCatalog()
		tables := sqldata.Generate(0.002, seed)
		for _, name := range sqldata.TableNames() {
			// Spread tables round-robin over the synthetic engines.
			eng := reg.Names()[len(cat.Tables())%engines]
			if err := cat.AddTable(tables[name], eng); err != nil {
				return nil, err
			}
		}
		opt := musqle.NewOptimizer(cat, reg)
		var pts []Point
		for n := 2; n <= 7; n++ {
			total := 0.0
			for rep := 0; rep < reps; rep++ {
				q, err := musqle.GenerateQuery(cat, n, false, seed+int64(n*100+rep))
				if err != nil {
					return nil, err
				}
				plan, err := opt.Optimize(q)
				if err != nil {
					return nil, err
				}
				total += plan.OptimizationTime.Seconds()
			}
			pts = append(pts, Point{X: float64(n), Y: total / float64(reps)})
		}
		r.AddSeries(fmt.Sprintf("%d engines", engines), pts...)
	}
	return r, nil
}

// MusqleExec reproduces MuSQLE Figs 8-10: per-query execution time of the
// 18-query workload under MuSQLE vs each engine forced, with tables in
// their home stores, at a given TPC-H scale factor. Physical data is
// generated at dataSF; statistics are scaled to statSF so plans reflect the
// target scale while execution (correctness) runs on in-memory data. The
// reported times are the engines' cost-model estimates at statSF.
func MusqleExec(seed int64, statSF float64) (*Report, error) {
	cat := musqle.NewCatalog()
	if err := cat.LoadTPCH(sqldata.Generate(0.002, seed)); err != nil {
		return nil, err
	}
	if statSF > 0 {
		if err := cat.ScaleStatsTo(statSF); err != nil {
			return nil, err
		}
	}
	reg := musqle.DefaultRegistry()
	opt := musqle.NewOptimizer(cat, reg)
	queries, err := musqle.QuerySet18(cat)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     fmt.Sprintf("MQ-EXEC-%.0fGB", statSF),
		Title:  fmt.Sprintf("MuSQLE vs single engines, TPCH %.0fGB, home-store placement", statSF),
		XLabel: "query",
		YLabel: "estimated execution time (s)",
	}
	// One point per query a series attempted or failed; queries whose MuSQLE
	// plan failed are never tried on the single engines.
	labels := append([]string{"MuSQLE"}, reg.Names()...)
	pts := make(map[string][]Point, len(labels))
	wins := 0
	for qi, q := range queries {
		x := float64(qi)
		multi, err := opt.Optimize(q)
		if err != nil {
			pts["MuSQLE"] = append(pts["MuSQLE"], Point{X: x, Failed: true})
			continue
		}
		pts["MuSQLE"] = append(pts["MuSQLE"], Point{X: x, Y: multi.EstSec})
		bestSingle := 0.0
		anySingle := false
		for _, e := range reg.Names() {
			forced, err := opt.OptimizeOn(q, e)
			if err != nil {
				pts[e] = append(pts[e], Point{X: x, Failed: true})
				continue
			}
			pts[e] = append(pts[e], Point{X: x, Y: forced.EstSec})
			if !anySingle || forced.EstSec < bestSingle {
				bestSingle, anySingle = forced.EstSec, true
			}
		}
		if anySingle && multi.EstSec < bestSingle*0.95 {
			wins++
		}
	}
	for _, l := range labels {
		r.Series = append(r.Series, Series{Label: l, Points: pts[l]})
	}
	r.Note("MuSQLE beats the best single engine by >5%% on %d of %d queries", wins, len(queries))
	return r, nil
}

// MusqleCorrectness executes the 18-query workload on physical data and
// verifies every multi-engine result against the reference executor —
// reported as a table (pass/fail, result sizes, simulated seconds).
func MusqleCorrectness(seed int64) (*Report, error) {
	cat := musqle.NewCatalog()
	// Tiny scale: the reference executor is a nested-loop oracle; some
	// generated star queries have inherently large outputs.
	if err := cat.LoadTPCH(sqldata.Generate(0.0004, seed)); err != nil {
		return nil, err
	}
	reg := musqle.DefaultRegistry()
	opt := musqle.NewOptimizer(cat, reg)
	queries, err := musqle.QuerySet18(cat)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "MQ-CORRECT", Title: "MuSQLE multi-engine execution correctness (vs reference joins)"}
	table := Table{
		Title:  "18-query workload, physical execution",
		Header: []string{"query", "tables", "rows", "sim time (s)", "engines", "correct"},
	}
	fails := 0
	for qi, q := range queries {
		plan, err := opt.Optimize(q)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %w", qi, err)
		}
		res, err := musqle.Execute(plan, q, cat, reg)
		if err != nil {
			return nil, fmt.Errorf("Q%d exec: %w", qi, err)
		}
		want, err := musqle.ReferenceExecute(q, cat)
		if err != nil {
			return nil, fmt.Errorf("Q%d ref: %w", qi, err)
		}
		ok := res.Table.NumRows() == want.NumRows()
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("Q%d", qi),
			fmt.Sprintf("%d", len(q.Tables)),
			fmt.Sprintf("%d", res.Table.NumRows()),
			fmt.Sprintf("%.3f", res.SimSec),
			fmt.Sprintf("%v", plan.EnginesUsed),
			fmt.Sprintf("%v", ok),
		})
		if !ok {
			fails++
			r.Note("Q%d row-count mismatch: got %d want %d", qi, res.Table.NumRows(), want.NumRows())
		}
	}
	r.Tables = append(r.Tables, table)
	if fails > 0 {
		r.Note("%d of %d queries failed verification", fails, len(queries))
	}
	return r, nil
}
