// Package provision implements the IReS resource-provisioning module
// (D3.3 §2.2.4): it runs NSGA-II over the trained cost/performance models
// of an operator to find Pareto-optimal resource configurations (#nodes,
// cores, memory) and selects one according to the user policy.
package provision

import (
	"fmt"
	"math"
	"sort"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/nsga2"
)

// Estimator is the model-backed predictor (satisfied by
// *profiler.Profiler).
type Estimator interface {
	Estimate(opName, target string, feats map[string]float64) (float64, bool)
}

// Policy selects one configuration from the Pareto front.
type Policy int

const (
	// MinTime picks the fastest configuration regardless of cost.
	MinTime Policy = iota
	// MinCost picks the cheapest configuration regardless of time.
	MinCost
	// Balanced picks the knee point (minimal normalised time*cost product).
	Balanced
)

// Option is one Pareto-optimal resource choice.
type Option struct {
	Res     engine.Resources
	EstTime float64
	EstCost float64
}

// Provisioner searches resource configurations bounded by the cluster.
type Provisioner struct {
	Estimator Estimator
	// Cluster bounds the search: at most Cluster.Nodes containers of at
	// most Cluster.CoresPerN cores and Cluster.MemMBPerN MB each.
	Cluster engine.Resources
	Seed    int64
}

// New returns a provisioner over the standard cluster bounds.
func New(est Estimator, cluster engine.Resources, seed int64) *Provisioner {
	return &Provisioner{Estimator: est, Cluster: cluster, Seed: seed}
}

const infeasiblePenalty = 1e12

// Front computes the Pareto front of (time, cost) resource configurations
// for one operator at the given input scale.
func (p *Provisioner) Front(opName string, records, bytes int64, params map[string]float64) ([]Option, error) {
	if p.Estimator == nil {
		return nil, fmt.Errorf("provision: Estimator is required")
	}
	if err := p.Cluster.Validate(); err != nil {
		return nil, fmt.Errorf("provision: bad cluster bounds: %w", err)
	}
	evaluate := func(x []float64) []float64 {
		res := engine.Resources{Nodes: int(x[0]), CoresPerN: int(x[1]), MemMBPerN: int(x[2])}
		feats := map[string]float64{
			"records":  float64(records),
			"bytes":    float64(bytes),
			"nodes":    float64(res.Nodes),
			"cores":    float64(res.CoresPerN),
			"memoryMB": float64(res.MemMBPerN),
		}
		for k, v := range params {
			feats[k] = v
		}
		t, ok1 := p.Estimator.Estimate(opName, "execTime", feats)
		c, ok2 := p.Estimator.Estimate(opName, "cost", feats)
		if !ok1 || !ok2 {
			return []float64{infeasiblePenalty, infeasiblePenalty}
		}
		return []float64{t, c}
	}
	problem := nsga2.Problem{
		Vars: []nsga2.Variable{
			{Min: 1, Max: float64(p.Cluster.Nodes), Integer: true},
			{Min: 1, Max: float64(p.Cluster.CoresPerN), Integer: true},
			{Min: 256, Max: float64(p.Cluster.MemMBPerN), Integer: true},
		},
		Objectives: 2,
		Evaluate:   evaluate,
	}
	front, err := nsga2.Run(problem, nsga2.Config{Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	var out []Option
	for _, ind := range front {
		if ind.F[0] >= infeasiblePenalty {
			continue
		}
		out = append(out, Option{
			Res:     engine.Resources{Nodes: int(ind.X[0]), CoresPerN: int(ind.X[1]), MemMBPerN: int(ind.X[2])},
			EstTime: ind.F[0],
			EstCost: ind.F[1],
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("provision: no feasible configuration for %s at %d records", opName, records)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EstTime < out[j].EstTime })
	return out, nil
}

// Provision picks one configuration per policy from the Pareto front.
func (p *Provisioner) Provision(opName string, records, bytes int64, params map[string]float64, policy Policy) (Option, []Option, error) {
	front, err := p.Front(opName, records, bytes, params)
	if err != nil {
		return Option{}, nil, err
	}
	return pick(front, policy), front, nil
}

func pick(front []Option, policy Policy) Option {
	best := front[0]
	switch policy {
	case MinTime:
		for _, o := range front {
			if o.EstTime < best.EstTime {
				best = o
			}
		}
	case MinCost:
		for _, o := range front {
			if o.EstCost < best.EstCost {
				best = o
			}
		}
	case Balanced:
		// Normalise both objectives over the front, minimise the product.
		minT, maxT := math.Inf(1), math.Inf(-1)
		minC, maxC := math.Inf(1), math.Inf(-1)
		for _, o := range front {
			minT, maxT = math.Min(minT, o.EstTime), math.Max(maxT, o.EstTime)
			minC, maxC = math.Min(minC, o.EstCost), math.Max(maxC, o.EstCost)
		}
		spanT, spanC := maxT-minT, maxC-minC
		if spanT == 0 {
			spanT = 1
		}
		if spanC == 0 {
			spanC = 1
		}
		bestScore := math.Inf(1)
		for _, o := range front {
			nt := (o.EstTime - minT) / spanT
			nc := (o.EstCost - minC) / spanC
			score := nt + nc
			if score < bestScore {
				bestScore = score
				best = o
			}
		}
	}
	return best
}
