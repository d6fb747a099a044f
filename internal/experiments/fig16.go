package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/model"
	"github.com/asap-project/ires/internal/profiler"
)

// modelingOp describes one single-operator learning-curve experiment
// (Fig 16 uses Wordcount/MapReduce and Pagerank/Java).
type modelingOp struct {
	label  string
	opName string
	engine string
	alg    string
	// setup sampling ranges
	records   []int64
	nodes     []int
	params    map[string][]float64
	resSingle bool // centralized engine: one node only
}

func fig16Ops() []modelingOp {
	return []modelingOp{
		{
			label: "Wordcount MapReduce", opName: "wordcount_mr",
			engine: engine.EngineMapReduce, alg: engine.AlgWordcount,
			records: []int64{10_000, 30_000, 100_000, 300_000, 1_000_000},
			nodes:   []int{2, 4, 8, 16},
		},
		{
			label: "Pagerank Java", opName: "pagerank_java",
			engine: engine.EngineJava, alg: engine.AlgPagerank,
			records:   []int64{10_000, 100_000, 1_000_000, 5_000_000},
			nodes:     []int{1},
			params:    map[string][]float64{"iterations": {5, 10, 20}},
			resSingle: true,
		},
	}
}

// sampleSetup draws one uniform setup from the operator's parameter sets.
func (m modelingOp) sampleSetup(rng *rand.Rand) (engine.Input, engine.Resources) {
	rec := m.records[rng.Intn(len(m.records))]
	in := engine.Input{Records: rec, Bytes: rec * 1_000, Params: map[string]float64{}}
	for name, vals := range m.params {
		in.Params[name] = vals[rng.Intn(len(vals))]
	}
	res := engine.Resources{Nodes: m.nodes[rng.Intn(len(m.nodes))], CoresPerN: 2, MemMBPerN: 3456}
	return in, res
}

// relErrOn computes the mean relative execution-time estimation error over
// a probe set against engine ground truth. Unestimable probes count as
// error 1 (no knowledge).
func relErrOn(p *profiler.Profiler, env *engine.Environment, m modelingOp, probes [][2]interface{}) float64 {
	total := 0.0
	for _, pr := range probes {
		in := pr[0].(engine.Input)
		res := pr[1].(engine.Resources)
		truth, err := env.GroundTruthSec(m.engine, m.alg, in, res)
		if err != nil {
			continue
		}
		feats := map[string]float64{
			"records": float64(in.Records), "bytes": float64(in.Bytes),
			"nodes": float64(res.Nodes), "cores": float64(res.CoresPerN), "memoryMB": float64(res.MemMBPerN),
		}
		for k, v := range in.Params {
			feats[k] = v
		}
		est, ok := p.Estimate(m.opName, profiler.TargetExecTime, feats)
		if !ok {
			total += 1.0
			continue
		}
		total += math.Abs(est-truth) / truth
	}
	return total / float64(len(probes))
}

func fig16Factories(seed int64) []model.Factory {
	return []model.Factory{
		func() model.Model { return model.NewLinear() },
		func() model.Model { return model.NewKNN(3) },
		func() model.Model { return model.NewTree(8, 2) },
		func() model.Model { return model.NewBagging(8, seed) },
	}
}

// Fig16a reproduces Figure 16a: relative execution-time estimation error
// vs number of observed executions under normal operation, for
// Wordcount/MapReduce and Pagerank/Java.
func Fig16a(runs int, seed int64) (*Report, error) {
	if runs <= 0 {
		runs = 80
	}
	r := &Report{
		ID:     "FIG16a",
		Title:  "Relative estimation error vs executions (online refinement)",
		XLabel: "executions",
		YLabel: "relative estimation error",
	}
	for _, m := range fig16Ops() {
		env := engine.NewDefaultEnvironment(seed)
		p := profiler.New(env, seed)
		p.Factories = fig16Factories(seed)
		rng := rand.New(rand.NewSource(seed + 7))
		probes := probeSet(m, seed+99, 25)

		var pts []Point
		for i := 1; i <= runs; i++ {
			in, res := m.sampleSetup(rng)
			run, err := env.Execute(m.engine, m.alg, in, res)
			if err != nil {
				return nil, fmt.Errorf("fig16a %s run %d: %w", m.label, i, err)
			}
			if err := p.Observe(m.opName, run); err != nil {
				return nil, err
			}
			if i%5 == 0 || i == 1 {
				pts = append(pts, Point{X: float64(i), Y: relErrOn(p, env, m, probes)})
			}
		}
		r.AddSeries(m.label, pts...)
	}
	return r, nil
}

// Fig16b reproduces Figure 16b: the Wordcount/MapReduce error trajectory
// when the cluster's HDDs are swapped for SSDs after changeAt executions —
// the error spikes, then the refined models re-converge without being
// discarded.
func Fig16b(runs, changeAt int, seed int64) (*Report, error) {
	if runs <= 0 {
		runs = 180
	}
	if changeAt <= 0 {
		changeAt = 100
	}
	m := fig16Ops()[0] // Wordcount MapReduce
	env := engine.NewDefaultEnvironment(seed)
	p := profiler.New(env, seed)
	p.Factories = fig16Factories(seed)
	rng := rand.New(rand.NewSource(seed + 7))
	probes := probeSet(m, seed+99, 25)

	r := &Report{
		ID:     "FIG16b",
		Title:  fmt.Sprintf("Estimation error with an infrastructure change after %d executions", changeAt),
		XLabel: "executions",
		YLabel: "relative estimation error",
	}
	var pts []Point
	for i := 1; i <= runs; i++ {
		if i == changeAt+1 {
			infra := env.Infrastructure()
			infra.DiskFactor = 0.3 // HDD -> SSD upgrade
			env.SetInfrastructure(infra)
			r.Note("infrastructure change (HDD->SSD) applied after execution %d", changeAt)
		}
		in, res := m.sampleSetup(rng)
		run, err := env.Execute(m.engine, m.alg, in, res)
		if err != nil {
			return nil, err
		}
		if err := p.Observe(m.opName, run); err != nil {
			return nil, err
		}
		if i%5 == 0 || i == 1 {
			pts = append(pts, Point{X: float64(i), Y: relErrOn(p, env, m, probes)})
		}
	}
	r.AddSeries(m.label, pts...)
	return r, nil
}

func probeSet(m modelingOp, seed int64, n int) [][2]interface{} {
	rng := rand.New(rand.NewSource(seed))
	probes := make([][2]interface{}, n)
	for i := range probes {
		in, res := m.sampleSetup(rng)
		probes[i] = [2]interface{}{in, res}
	}
	return probes
}
