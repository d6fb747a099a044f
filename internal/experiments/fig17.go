package experiments

import (
	"fmt"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
)

// Fig17 reproduces Figure 17: execution time and execution cost vs input
// size for the Spark (MLlib) tf-idf operator under three provisioning
// strategies — static max resources, static min resources, and IReS's
// NSGA-II-driven elastic provisioning. Cost follows the paper's metric
// #VM * cores/VM * GB/VM * t. It returns the time report and the cost
// report (the figure's two panels).
func Fig17(seed int64) (*Report, *Report, error) {
	p, err := ires.NewPlatform(ires.Options{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	p.Profiler.Factories = fastFactories(seed)
	if err := p.RegisterOperator("tfidf_mllib", textDesc(ires.EngineSpark, "TF_IDF", "HDFS", "SequenceFile")); err != nil {
		return nil, nil, err
	}
	space := ires.ProfileSpace{
		Records:        []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000},
		BytesPerRecord: 5_000,
		// Cross nodes with memory so the models can separate the two
		// effects (a confounded grid makes provisioning mispick).
		Resources: []engine.Resources{
			{Nodes: 2, CoresPerN: 2, MemMBPerN: 1024},
			{Nodes: 2, CoresPerN: 2, MemMBPerN: 3456},
			{Nodes: 4, CoresPerN: 2, MemMBPerN: 1024},
			{Nodes: 4, CoresPerN: 2, MemMBPerN: 3456},
			{Nodes: 8, CoresPerN: 2, MemMBPerN: 1024},
			{Nodes: 8, CoresPerN: 2, MemMBPerN: 3456},
			{Nodes: 16, CoresPerN: 2, MemMBPerN: 1024},
			{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456},
		},
	}
	if _, err := p.ProfileOperator("tfidf_mllib", space); err != nil {
		return nil, nil, err
	}

	timeR := &Report{
		ID: "FIG17-time", Title: "Provisioning: execution time vs input size",
		XLabel: "documents", YLabel: "execution time (s)",
	}
	costR := &Report{
		ID: "FIG17-cost", Title: "Provisioning: execution cost vs input size",
		XLabel: "documents", YLabel: "execution cost (#VM*cores*GB*t)",
	}
	sizes := []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000}

	maxRes := engine.Resources{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456}
	minRes := engine.Resources{Nodes: 2, CoresPerN: 2, MemMBPerN: 1024}

	runWith := func(docs int64, res engine.Resources) (float64, float64, error) {
		in := engine.Input{Records: docs, Bytes: docs * 5_000}
		run, err := p.Env.Execute(ires.EngineSpark, "TF_IDF", in, res)
		if err != nil {
			return 0, 0, err
		}
		return run.ExecTimeSec, run.CostUnits, nil
	}

	type strat struct {
		label  string
		choose func(docs int64) (engine.Resources, error)
	}
	strategies := []strat{
		{"max resources", func(int64) (engine.Resources, error) { return maxRes, nil }},
		{"min resources", func(int64) (engine.Resources, error) { return minRes, nil }},
		{"IReS", func(docs int64) (engine.Resources, error) {
			best, err := p.ProvisionFront("tfidf_mllib", docs, docs*5_000, nil)
			if err != nil {
				return engine.Resources{}, err
			}
			// ProvisionFront sorts fastest-first; the platform policy is
			// MinTime, so take the head but prefer equal-time cheaper
			// options (epsilon 5%).
			pick := best[0]
			for _, o := range best {
				if o.EstTime <= pick.EstTime*1.05 && o.EstCost < pick.EstCost {
					pick = o
				}
			}
			return pick.Res, nil
		}},
	}
	for _, s := range strategies {
		var tPts, cPts []Point
		for _, docs := range sizes {
			res, err := s.choose(docs)
			if err != nil {
				return nil, nil, fmt.Errorf("fig17 %s at %d docs: %w", s.label, docs, err)
			}
			sec, cost, err := runWith(docs, res)
			if err != nil {
				tPts = append(tPts, Point{X: float64(docs), Failed: true})
				cPts = append(cPts, Point{X: float64(docs), Failed: true})
				continue
			}
			tPts = append(tPts, Point{X: float64(docs), Y: sec})
			cPts = append(cPts, Point{X: float64(docs), Y: cost})
		}
		timeR.AddSeries(s.label, tPts...)
		costR.AddSeries(s.label, cPts...)
	}
	return timeR, costR, nil
}
