// Package nsga2 implements the NSGA-II multi-objective genetic algorithm
// (Deb et al. 2002) that IReS's resource-provisioning module uses to pick
// Pareto-optimal resource configurations from the trained cost/performance
// models (D3.3 §2.2.4). The implementation covers fast non-dominated
// sorting, crowding distance, binary tournament selection under the crowded
// comparison operator, simulated binary crossover (SBX) and polynomial
// mutation, with elitist environmental selection.
package nsga2

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Variable bounds one decision variable. Integer variables are rounded on
// evaluation and in the returned individuals.
type Variable struct {
	Min, Max float64
	Integer  bool
}

// Problem is a minimisation problem over box-bounded variables.
type Problem struct {
	Vars []Variable
	// Objectives is the number of objectives Evaluate returns.
	Objectives int
	// Evaluate maps a decision vector to its objective values (all
	// minimised). It must be deterministic.
	Evaluate func(x []float64) []float64
}

// Config holds the GA hyper-parameters. Zero values select defaults.
type Config struct {
	PopSize     int // default 40 (rounded up to even)
	Generations int // default 50
	Seed        int64
}

// The variation operators' fixed parameters: SBX is applied to a pair with
// probability crossoverProb, each variable mutates with probability
// 1/len(vars), and etaCrossover and etaMutation are the SBX and polynomial
// mutation distribution indices (floats, so 1/(eta+1) is no integer division).
const (
	crossoverProb = 0.9
	etaCrossover  = 15.0
	etaMutation   = 20.0
)

func (c Config) withDefaults() Config {
	if c.PopSize <= 0 {
		c.PopSize = 40
	}
	if c.PopSize%2 == 1 {
		c.PopSize++
	}
	if c.Generations <= 0 {
		c.Generations = 50
	}
	return c
}

// Individual is one evaluated solution.
type Individual struct {
	X []float64 // decision variables (integers already rounded)
	F []float64 // objective values

	rank     int
	crowding float64
}

// Run executes NSGA-II and returns the final population's first
// non-dominated front, sorted by the first objective.
func Run(p Problem, cfg Config) ([]Individual, error) {
	if len(p.Vars) == 0 {
		return nil, fmt.Errorf("nsga2: no decision variables")
	}
	if p.Objectives < 1 {
		return nil, fmt.Errorf("nsga2: need at least one objective")
	}
	if p.Evaluate == nil {
		return nil, fmt.Errorf("nsga2: Evaluate is required")
	}
	for i, v := range p.Vars {
		if v.Max < v.Min {
			return nil, fmt.Errorf("nsga2: variable %d has Max < Min", i)
		}
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	pop := make([]Individual, cfg.PopSize)
	for i := range pop {
		x := make([]float64, len(p.Vars))
		for j, v := range p.Vars {
			x[j] = v.Min + rng.Float64()*(v.Max-v.Min)
		}
		pop[i] = evaluate(p, x)
	}
	rankAndCrowd(pop)

	for gen := 0; gen < cfg.Generations; gen++ {
		offspring := make([]Individual, 0, cfg.PopSize)
		for len(offspring) < cfg.PopSize {
			a := tournament(rng, pop)
			b := tournament(rng, pop)
			c1, c2 := crossover(rng, p, a.X, b.X)
			mutate(rng, p, c1)
			mutate(rng, p, c2)
			offspring = append(offspring, evaluate(p, c1), evaluate(p, c2))
		}
		pop = environmentalSelection(append(pop, offspring...), cfg.PopSize)
	}

	var front []Individual
	for _, ind := range pop {
		if ind.rank == 0 {
			front = append(front, ind)
		}
	}
	front = dedupFront(front)
	sort.Slice(front, func(i, j int) bool { return front[i].F[0] < front[j].F[0] })
	return front, nil
}

func evaluate(p Problem, x []float64) Individual {
	clamped := make([]float64, len(x))
	for j, v := range p.Vars {
		val := x[j]
		if val < v.Min {
			val = v.Min
		}
		if val > v.Max {
			val = v.Max
		}
		if v.Integer {
			val = math.Round(val)
			if val < v.Min {
				val = math.Ceil(v.Min)
			}
			if val > v.Max {
				val = math.Floor(v.Max)
			}
		}
		clamped[j] = val
	}
	return Individual{X: clamped, F: p.Evaluate(clamped)}
}

// Dominates reports whether a Pareto-dominates b (no worse in all
// objectives, strictly better in at least one).
func Dominates(a, b Individual) bool {
	better := false
	for i := range a.F {
		if a.F[i] > b.F[i] {
			return false
		}
		if a.F[i] < b.F[i] {
			better = true
		}
	}
	return better
}

// rankAndCrowd assigns non-domination ranks and crowding distances.
func rankAndCrowd(pop []Individual) {
	fronts := sortFronts(pop)
	for _, front := range fronts {
		assignCrowding(pop, front)
	}
}

// sortFronts performs fast non-dominated sorting, returning index fronts.
func sortFronts(pop []Individual) [][]int {
	n := len(pop)
	domCount := make([]int, n)
	dominated := make([][]int, n)
	var first []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if Dominates(pop[i], pop[j]) {
				dominated[i] = append(dominated[i], j)
			} else if Dominates(pop[j], pop[i]) {
				domCount[i]++
			}
		}
		if domCount[i] == 0 {
			pop[i].rank = 0
			first = append(first, i)
		}
	}
	fronts := [][]int{first}
	for len(fronts[len(fronts)-1]) > 0 {
		var next []int
		for _, i := range fronts[len(fronts)-1] {
			for _, j := range dominated[i] {
				domCount[j]--
				if domCount[j] == 0 {
					pop[j].rank = len(fronts)
					next = append(next, j)
				}
			}
		}
		fronts = append(fronts, next)
	}
	return fronts[:len(fronts)-1]
}

func assignCrowding(pop []Individual, front []int) {
	if len(front) == 0 {
		return
	}
	for _, i := range front {
		pop[i].crowding = 0
	}
	nobj := len(pop[front[0]].F)
	for m := 0; m < nobj; m++ {
		sorted := append([]int(nil), front...)
		sort.Slice(sorted, func(a, b int) bool { return pop[sorted[a]].F[m] < pop[sorted[b]].F[m] })
		lo, hi := pop[sorted[0]].F[m], pop[sorted[len(sorted)-1]].F[m]
		pop[sorted[0]].crowding = math.Inf(1)
		pop[sorted[len(sorted)-1]].crowding = math.Inf(1)
		if hi == lo {
			continue
		}
		for k := 1; k < len(sorted)-1; k++ {
			pop[sorted[k]].crowding += (pop[sorted[k+1]].F[m] - pop[sorted[k-1]].F[m]) / (hi - lo)
		}
	}
}

// tournament picks the crowded-comparison winner of two random individuals.
func tournament(rng *rand.Rand, pop []Individual) Individual {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if crowdedLess(a, b) {
		return a
	}
	return b
}

func crowdedLess(a, b Individual) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.crowding > b.crowding
}

// crossover applies SBX with probability crossoverProb, else copies.
func crossover(rng *rand.Rand, p Problem, a, b []float64) ([]float64, []float64) {
	c1 := append([]float64(nil), a...)
	c2 := append([]float64(nil), b...)
	if rng.Float64() > crossoverProb {
		return c1, c2
	}
	for j, v := range p.Vars {
		if rng.Float64() > 0.5 || math.Abs(a[j]-b[j]) < 1e-14 {
			continue
		}
		x1, x2 := math.Min(a[j], b[j]), math.Max(a[j], b[j])
		u := rng.Float64()
		var beta float64
		if u <= 0.5 {
			beta = math.Pow(2*u, 1/(etaCrossover+1))
		} else {
			beta = math.Pow(1/(2*(1-u)), 1/(etaCrossover+1))
		}
		c1[j] = 0.5 * ((x1 + x2) - beta*(x2-x1))
		c2[j] = 0.5 * ((x1 + x2) + beta*(x2-x1))
		c1[j] = clamp(c1[j], v.Min, v.Max)
		c2[j] = clamp(c2[j], v.Min, v.Max)
	}
	return c1, c2
}

// mutate applies polynomial mutation in place, to each variable with
// probability 1/len(vars).
func mutate(rng *rand.Rand, p Problem, x []float64) {
	prob := 1 / float64(len(p.Vars))
	for j, v := range p.Vars {
		if rng.Float64() > prob {
			continue
		}
		span := v.Max - v.Min
		if span <= 0 {
			continue
		}
		u := rng.Float64()
		var delta float64
		if u < 0.5 {
			delta = math.Pow(2*u, 1/(etaMutation+1)) - 1
		} else {
			delta = 1 - math.Pow(2*(1-u), 1/(etaMutation+1))
		}
		x[j] = clamp(x[j]+delta*span, v.Min, v.Max)
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// environmentalSelection keeps the best n individuals by rank, breaking the
// boundary front by crowding distance.
func environmentalSelection(pop []Individual, n int) []Individual {
	rankAndCrowd(pop)
	sort.SliceStable(pop, func(i, j int) bool { return crowdedLess(pop[i], pop[j]) })
	out := append([]Individual(nil), pop[:n]...)
	rankAndCrowd(out)
	return out
}

// dedupFront removes duplicate decision vectors (integer problems collapse
// many genotypes onto the same phenotype).
func dedupFront(front []Individual) []Individual {
	seen := make(map[string]bool)
	var out []Individual
	for _, ind := range front {
		key := fmt.Sprint(ind.X)
		if !seen[key] {
			seen[key] = true
			out = append(out, ind)
		}
	}
	return out
}
