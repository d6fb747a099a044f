package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/pegasus"
)

// The workload generator: Generate is a pure function of (workload, seed,
// quick). Everything a workload hands the platform is in the Spec it
// returns — platform Options, SubmitOptions, a FaultConfig, cost shapes for
// Env.RegisterWorkload and description strings — so two equal seeds give
// byte-identical inputs and the program receives nothing else.
//
// Every workload has a fixed base episode, drawn with platformSeed: which
// (workflow, size, slice demand, deadline) runs make up each wave — on
// tenant_mix also their tenants, which DRF admits by — and on plan_wide the
// sequence of request kinds with the graphs of the cold, flap and Pareto
// requests. The --seed perturbs it: the order of the runs inside every wave
// and their tenants (users on tenant_mix); on plan_wide, which graph each
// warm request plans and which engine each flap takes down. The multiset of
// requests is therefore the same for every seed — two seeds do the same work
// in a different order — and so is the composition of every wave.
//
// Why so little depends on the seed: cross-validated model selection is
// chaotic in its inputs. With Options.Seed (the simulated cluster's noise and
// the model zoo's own randomness) following the seed, the same 240 text runs
// measured 16 to 29 runs/s and 62k to 70k allocations per run across six
// seeds with the request order fixed; with whole-episode shuffles,
// tenant_mix fell into two regimes 5 % apart in allocations, and with tied
// deadlines fault_storm's allocated bytes spread 7 %. A benchmark that let
// that through could resolve nothing below 30 %. Pinned as here, ten seeds
// agree within 1 to 2 % in allocations.

// platformSeed seeds the simulated environment and the profiler
// (Options.Seed), the fault schedule and the base episode of every workload.
const platformSeed = 42

// Workload names. Later issues cite them; do not rename.
const (
	SteadyText = "steady_text"
	TenantMix  = "tenant_mix"
	FaultStorm = "fault_storm"
	PlanWide   = "plan_wide"
)

// WorkloadInfo is one row of the workload table (BENCHMARK.json and
// bench/README.md carry the same text).
type WorkloadInfo struct {
	Name string
	Why  string
}

// Workloads lists the four workloads in report order, each with the reason
// it was chosen.
var Workloads = []WorkloadInfo{
	{SteadyText, "240 Fig-12 text runs over 4 operators: deep per-operator history, so online refinement dominates and grows with lifetime; six recurring shapes probe the planner cache under retrain evictions"},
	{TenantMix, "720 three-operator chains over 96 operators, DRF slices, checkpoints: shallow history per operator; most decisions, leases, hand-offs and trace events per observation"},
	{FaultStorm, "210 HelloWorld chains under Deadline with transient faults, stragglers and a Spark outage: retry, speculation, replan-from-done-set, breaker invalidation, estimate dry-plans at submit"},
	{PlanWide, "1500 Plan/ParetoPlans calls over ten Pegasus DAGs with cold resets and engine flaps, no execution: planner, match index, read-only profiler estimates; bypasses every Observe-side change"},
}

// PolicySpec names the admission policy of a workload. The policy value is
// built per platform by admission().
type PolicySpec struct {
	Kind          string // "fairshare", "drf" or "deadline"
	MaxConcurrent int
}

func (ps PolicySpec) admission() ires.AdmissionPolicy {
	switch ps.Kind {
	case "fairshare":
		return ires.FairShare(ps.MaxConcurrent)
	case "drf":
		return ires.DRF(nil, ps.MaxConcurrent)
	case "deadline":
		return ires.Deadline()
	}
	return nil
}

// OperatorSpec is one materialized operator: its description file and the
// offline profiling grid.
type OperatorSpec struct {
	Name        string
	Description string
	Space       ires.ProfileSpace
}

// WorkflowSpec describes an abstract workflow as data. A chain workflow is a
// source dataset description followed by abstract operators (one algorithm
// each); a Pegasus workflow is a (category, size) pair.
type WorkflowSpec struct {
	Source     string   `json:",omitempty"`
	Algorithms []string `json:",omitempty"`
	Category   string   `json:",omitempty"`
	Size       int      `json:",omitempty"`
}

// RunSpec is one submission of a run workload.
type RunSpec struct {
	Workflow WorkflowSpec
	Submit   ires.SubmitOptions
	// DeadlineInSec, when positive, sets Submit.Deadline to that many
	// virtual seconds after the submission instant.
	DeadlineInSec float64 `json:",omitempty"`
}

// OutageSpec takes one engine down mid-episode: the outage is armed when
// wave Wave is submitted, fires AfterSec virtual seconds later, and the
// engine is restored after that wave drains.
type OutageSpec struct {
	Engine   string
	Wave     int
	AfterSec float64
}

// Plan request kinds of plan_wide.
const (
	PlanWarm   = "warm"
	PlanCold   = "cold"
	PlanFlap   = "flap"
	PlanPareto = "pareto"
)

// PlanSpec is one planning request. A flap request flips Engine to Up
// before planning.
type PlanSpec struct {
	Graph  int
	Kind   string
	Engine string `json:",omitempty"`
	Up     bool   `json:",omitempty"`
}

// Spec is the complete generated input of one workload episode.
type Spec struct {
	Workload string
	Seed     int64
	Quick    bool
	// Options holds only the recovery knobs and the seed; cluster size,
	// monitor period, model zoo and everything else stay at the platform's
	// defaults. Tracer and Admission are filled in by the runner.
	Options ires.Options
	Policy  PolicySpec
	Faults  *ires.FaultConfig `json:",omitempty"`
	Outage  *OutageSpec       `json:",omitempty"`

	CostShapes []engine.Workload `json:",omitempty"`
	Operators  []OperatorSpec

	Waves [][]RunSpec `json:",omitempty"` // run workloads

	Graphs []WorkflowSpec `json:",omitempty"` // plan_wide
	Plans  []PlanSpec     `json:",omitempty"`
}

// Ops counts the operations of an episode: runs, or planning requests.
func (s *Spec) Ops() int {
	if len(s.Plans) > 0 {
		return len(s.Plans)
	}
	n := 0
	for _, w := range s.Waves {
		n += len(w)
	}
	return n
}

// Generate builds the inputs of one workload. quick shrinks the episode to
// test size (same structure, same code paths).
func Generate(workload string, seed int64, quick bool) (*Spec, error) {
	base, rng := rand.New(rand.NewSource(platformSeed)), rand.New(rand.NewSource(seed))
	s := &Spec{Workload: workload, Seed: seed, Quick: quick, Options: ires.Options{Seed: platformSeed}}
	switch workload {
	case SteadyText:
		genSteadyText(s, base, rng)
	case TenantMix:
		genTenantMix(s, base, rng)
	case FaultStorm:
		genFaultStorm(s, base, rng)
	case PlanWide:
		genPlanWide(s, base, rng)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return s, nil
}

var (
	standardRes = []engine.Resources{engine.StandardCluster}
	singleRes   = []engine.Resources{engine.SingleNode}
)

// engineProfile looks an engine up in the default deployment.
func engineProfile(eng string) engine.Profile {
	for _, p := range engine.DefaultProfiles() {
		if p.Name == eng {
			return p
		}
	}
	panic("no default profile for engine " + eng) // fixed arguments: only a bug can get here
}

// Centralized engines profile on one node, distributed ones on the cluster.
func resourcesFor(eng string) []engine.Resources {
	if engineProfile(eng).Centralized {
		return singleRes
	}
	return standardRes
}

func operatorDesc(eng, alg string) string {
	fs := engineProfile(eng).FS
	return "Constraints.Engine=" + eng +
		"\nConstraints.OpSpecification.Algorithm.name=" + alg +
		"\nConstraints.Input0.Engine.FS=" + fs +
		"\nConstraints.Output0.Engine.FS=" + fs + "\n"
}

func sourceDesc(fs, path string, records, bytesPerRecord int64) string {
	return fmt.Sprintf("Constraints.Engine.FS=%s\nExecution.path=%s\nOptimization.documents=%d\nOptimization.size=%d",
		fs, path, records, records*bytesPerRecord)
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%02d", i) }

// shuffledCycle returns n values cycling through vals, so every value
// appears n/len(vals) times (±1), in seeded random order.
func shuffledCycle[T any](rng *rand.Rand, vals []T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = vals[i%len(vals)]
	}
	return shuffled(rng, out)
}

// genSteadyText: the Fig 12 workflow (tf-idf -> k-means, scikit and Spark
// implementations) at six recurring corpus sizes, FairShare(8), 16 tenants.
func genSteadyText(s *Spec, base, rng *rand.Rand) {
	waves, per := 30, 8
	if s.Quick {
		waves, per = 3, 4
	}
	s.Policy = PolicySpec{Kind: "fairshare", MaxConcurrent: 8}
	for _, alg := range []string{engine.AlgTFIDF, engine.AlgKMeans} {
		for _, eng := range []string{ires.EngineScikit, ires.EngineSpark} {
			fs, typ := "LFS", "csv"
			if eng == ires.EngineSpark {
				fs, typ = "HDFS", "SequenceFile"
			}
			s.Operators = append(s.Operators, OperatorSpec{
				Name: alg + "_" + eng,
				Description: "Constraints.Engine=" + eng +
					"\nConstraints.OpSpecification.Algorithm.name=" + alg +
					"\nConstraints.Input0.Engine.FS=" + fs +
					"\nConstraints.Input0.type=" + typ +
					"\nConstraints.Output0.Engine.FS=" + fs +
					"\nConstraints.Output0.type=" + typ + "\n",
				Space: ires.ProfileSpace{
					Records:        []int64{1_000, 3_000, 10_000, 30_000, 100_000, 1_000_000},
					BytesPerRecord: 5_000,
					Resources:      resourcesFor(eng),
				},
			})
		}
	}
	docs := shuffledCycle(base, []int64{50_000, 70_000, 90_000, 110_000, 130_000, 150_000}, waves*per)
	tenants := shuffledCycle(rng, seq(16), waves*per)
	for w := 0; w < waves; w++ {
		var wave []RunSpec
		for i := 0; i < per; i++ {
			n := docs[w*per+i]
			wave = append(wave, RunSpec{
				Workflow: WorkflowSpec{
					Source: "Constraints.Engine.FS=HDFS\nConstraints.type=SequenceFile\nExecution.path=hdfs:///warc" +
						fmt.Sprintf("\nOptimization.documents=%d\nOptimization.size=%d", n, n*5_000),
					Algorithms: []string{engine.AlgTFIDF, engine.AlgKMeans},
				},
				Submit: ires.SubmitOptions{
					Name:   fmt.Sprintf("text-%dk", n/1000),
					Tenant: tenantName(tenants[w*per+i]),
				},
			})
		}
		s.Waves = append(s.Waves, shuffled(rng, wave))
	}
}

// shuffled reorders s in place in seeded random order and returns it.
func shuffled[T any](rng *rand.Rand, s []T) []T {
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// synthShape is the fixed cost shape of synthetic algorithm i: compute per
// record spreads over two decades, every fourth algorithm shuffles (n log n)
// and every eighth iterates, so the three engines trade places across the
// input range. Shapes do not depend on the seed.
func synthShape(i int) engine.Workload {
	w := engine.Workload{
		Algorithm:         fmt.Sprintf("synth%02d", i),
		UnitsPerRecord:    20 * math.Pow(100, float64(i%8)/7),
		LogN:              i%4 == 3,
		MemBytesPerRecord: float64(100 + 50*(i%5)),
		OutputFactor:      []float64{1, 0.5, 0.25}[i%3],
		MinOutputRecords:  1,
	}
	if i%8 == 5 {
		w.IterParam, w.DefaultIters = "iterations", 4
	}
	return w
}

// genTenantMix: three-operator chains over 32 synthetic algorithms x
// {Spark, MapReduce, Java}, DRF(8) with slice demands, 16 tenants x 3
// users, durable checkpointing.
func genTenantMix(s *Spec, base, rng *rand.Rand) {
	waves, per, algs := 30, 24, 32
	if s.Quick {
		waves, per, algs = 3, 8, 4
	}
	s.Policy = PolicySpec{Kind: "drf", MaxConcurrent: 8}
	s.Options.Checkpoint = ires.CheckpointPolicy{Enabled: true, MinIntervalSec: 2, Durable: true}
	for i := 0; i < algs; i++ {
		shape := synthShape(i)
		s.CostShapes = append(s.CostShapes, shape)
		for _, eng := range []string{ires.EngineSpark, ires.EngineMapReduce, ires.EngineJava} {
			s.Operators = append(s.Operators, OperatorSpec{
				Name:        shape.Algorithm + "_" + eng,
				Description: operatorDesc(eng, shape.Algorithm),
				Space: ires.ProfileSpace{
					Records:        []int64{10_000, 100_000, 1_000_000, 5_000_000},
					BytesPerRecord: 200,
					Resources:      resourcesFor(eng),
				},
			})
		}
	}
	n := waves * per
	sizes := shuffledCycle(base, []int64{20_000, 60_000, 200_000, 600_000, 2_000_000, 4_000_000}, n)
	cores := shuffledCycle(base, []int{1, 2}, n)
	mems := shuffledCycle(base, []int{512, 1024, 1536, 2048, 2560}, n)
	links := shuffledCycle(base, seq(algs), 3*n) // every algorithm is used equally often
	tenants := shuffledCycle(base, seq(16), n)
	users := shuffledCycle(rng, seq(3), n)
	for w := 0; w < waves; w++ {
		var wave []RunSpec
		for i := 0; i < per; i++ {
			k := w*per + i
			chain := make([]string, 3)
			for c := range chain {
				chain[c] = fmt.Sprintf("synth%02d", links[3*k+c])
			}
			wave = append(wave, RunSpec{
				Workflow: WorkflowSpec{
					Source:     sourceDesc("HDFS", "hdfs:///mix", sizes[k], 200),
					Algorithms: chain,
				},
				Submit: ires.SubmitOptions{
					Name:        fmt.Sprintf("mix-%04d", k),
					Tenant:      tenantName(tenants[k]),
					User:        fmt.Sprintf("user-%d", users[k]),
					DemandCores: cores[k],
					DemandMemMB: mems[k],
				},
			})
		}
		s.Waves = append(s.Waves, shuffled(rng, wave))
	}
}

// helloWorld mirrors the paper's Table 1: operator and available engines.
var helloWorld = []struct {
	alg     string
	engines []string
}{
	{engine.AlgHello, []string{ires.EnginePython}},
	{engine.AlgHello1, []string{ires.EngineSpark, ires.EnginePython}},
	{engine.AlgHello2, []string{ires.EngineSpark, engine.EngineMLlib, ires.EnginePostgreSQL, engine.EngineHive}},
	{engine.AlgHello3, []string{ires.EngineSpark, ires.EnginePython}},
}

// genFaultStorm: the HelloWorld four-operator chain under the Deadline
// policy with transient failures, stragglers and one Spark outage (every
// operator Spark implements has another engine, so no plan can fail).
func genFaultStorm(s *Spec, base, rng *rand.Rand) {
	waves, per := 30, 7
	if s.Quick {
		waves, per = 4, 4
	}
	s.Policy = PolicySpec{Kind: "deadline"}
	s.Options.Retry = ires.RetryPolicy{MaxAttempts: 4}
	s.Options.TimeoutFactor = 2
	s.Options.BreakerThreshold = 5
	s.Options.Checkpoint = ires.CheckpointPolicy{Enabled: true, MinIntervalSec: 2, Durable: true}
	s.Faults = &ires.FaultConfig{
		Seed:      platformSeed,
		Default:   ires.FaultTransient{FailProb: 0.15},
		Straggler: ires.StragglerFaults{Prob: 0.075, Factor: 4},
	}
	s.Outage = &OutageSpec{Engine: ires.EngineSpark, Wave: waves / 2, AfterSec: 30}
	var chain []string
	for _, hw := range helloWorld {
		chain = append(chain, hw.alg)
		for _, eng := range hw.engines {
			s.Operators = append(s.Operators, OperatorSpec{
				Name:        hw.alg + "_" + eng,
				Description: operatorDesc(eng, hw.alg),
				Space: ires.ProfileSpace{
					Records:        []int64{200, 1_000, 5_000},
					BytesPerRecord: 1_000,
					Resources:      resourcesFor(eng),
				},
			})
		}
	}
	n := waves * per
	sizes := shuffledCycle(base, []int64{400, 800, 1_600, 3_200}, n)
	var deadlines []float64 // every wave gets each deadline once: EDF order has no ties
	for w := 0; w < waves; w++ {
		for _, k := range base.Perm(per) {
			deadlines = append(deadlines, 600*math.Pow(1.45, float64(k)))
		}
	}
	tenants := shuffledCycle(rng, seq(16), n)
	for w := 0; w < waves; w++ {
		var wave []RunSpec
		for i := 0; i < per; i++ {
			k := w*per + i
			wave = append(wave, RunSpec{
				Workflow: WorkflowSpec{
					Source:     sourceDesc("LFS", "/d0", sizes[k], 1_000),
					Algorithms: chain,
				},
				Submit: ires.SubmitOptions{
					Name:   fmt.Sprintf("hello-%03d", k),
					Tenant: tenantName(tenants[k]),
				},
				DeadlineInSec: deadlines[k],
			})
		}
		s.Waves = append(s.Waves, shuffled(rng, wave))
	}
}

// planEngines are the four implementations of every Pegasus algorithm: two
// disk-backed distributed engines, one in-memory distributed engine and a
// centralized one on another store, so plans mix engines and insert moves.
var planEngines = []string{ires.EngineSpark, ires.EngineMapReduce, ires.EngineHama, ires.EngineJava}

// pegasusShape is the fixed cost shape of a Pegasus algorithm, derived from
// its position in the first-use order of the ten graphs.
func pegasusShape(alg string, i int) engine.Workload {
	return engine.Workload{
		Algorithm:         alg,
		UnitsPerRecord:    50 * math.Pow(40, float64(i%7)/6),
		LogN:              i%5 == 4,
		MemBytesPerRecord: float64(80 + 40*(i%4)),
		OutputFactor:      []float64{0.8, 0.5, 1}[i%3],
		MinOutputRecords:  1,
	}
}

// genPlanWide: planning requests over ten Pegasus DAGs. The multiset of
// (graph, kind) pairs is fixed — graphs follow Zipf(1.3) within every kind —
// and so is the sequence of kinds; the seed deals the graphs of the warm
// requests and the flapped engines. Flaps alternate down/up, so at most one
// engine is ever down and every engine is up again at the end.
func genPlanWide(s *Spec, base, rng *rand.Rand) {
	cats, sizes := pegasus.Categories(), []int{100, 300}
	grid := []int64{1_000, 10_000, 100_000, 1_000_000}
	counts := map[string]int{PlanWarm: 1199, PlanCold: 45, PlanFlap: 226, PlanPareto: 30}
	if s.Quick {
		// Two profiling points per operator train without cross-validation,
		// which is most of what set-up costs.
		cats, sizes, grid = cats[:1], []int{12, 24}, []int64{1_000, 1_000_000}
		counts = map[string]int{PlanWarm: 40, PlanCold: 4, PlanFlap: 12, PlanPareto: 4}
	}
	// Rank order alternates the two sizes so neither dominates the head of
	// the Zipf distribution.
	for i, cat := range cats {
		s.Graphs = append(s.Graphs, WorkflowSpec{Category: string(cat), Size: sizes[i%2]})
	}
	for i, cat := range cats {
		s.Graphs = append(s.Graphs, WorkflowSpec{Category: string(cat), Size: sizes[(i+1)%2]})
	}
	seen := map[string]bool{}
	for _, gs := range s.Graphs {
		g, err := pegasus.Generate(pegasus.Category(gs.Category), gs.Size)
		if err != nil {
			panic(err) // fixed arguments: only a bug can get here
		}
		for _, alg := range pegasus.Algorithms(g) {
			if seen[alg] {
				continue
			}
			seen[alg] = true
			s.CostShapes = append(s.CostShapes, pegasusShape(alg, len(s.CostShapes)))
			for _, eng := range planEngines {
				s.Operators = append(s.Operators, OperatorSpec{
					Name:        alg + "_" + eng,
					Description: operatorDesc(eng, alg),
					Space: ires.ProfileSpace{
						Records:        grid,
						BytesPerRecord: 1_000,
						Resources:      resourcesFor(eng),
					},
				})
			}
		}
	}

	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		for g, n := range zipfCounts(len(s.Graphs), 1.3, counts[kind]) {
			for i := 0; i < n; i++ {
				s.Plans = append(s.Plans, PlanSpec{Graph: g, Kind: kind})
			}
		}
	}
	shuffled(base, s.Plans)
	var warm, warmGraphs []int
	for i, p := range s.Plans {
		if p.Kind == PlanWarm {
			warm, warmGraphs = append(warm, i), append(warmGraphs, p.Graph)
		}
	}
	for k, g := range shuffled(rng, warmGraphs) {
		s.Plans[warm[k]].Graph = g
	}
	victims := shuffledCycle(rng, planEngines, counts[PlanFlap]/2) // every engine flaps equally often
	down := ""
	for i := range s.Plans {
		if s.Plans[i].Kind != PlanFlap {
			continue
		}
		if down == "" {
			down, victims = victims[0], victims[1:]
			s.Plans[i].Engine = down
		} else {
			s.Plans[i].Engine, s.Plans[i].Up = down, true
			down = ""
		}
	}
}

// zipfCounts splits total into n parts proportional to rank^-exp, by
// largest remainder, so the split is exact and seed-independent.
func zipfCounts(n int, exp float64, total int) []int {
	weights := make([]float64, n)
	sum := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -exp)
		sum += weights[i]
	}
	counts := make([]int, n)
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, n)
	left := total
	for i, w := range weights {
		exact := w / sum * float64(total)
		counts[i] = int(exact)
		left -= counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].r != rems[b].r {
			return rems[a].r > rems[b].r
		}
		return rems[a].i < rems[b].i
	})
	for k := 0; k < left; k++ {
		counts[rems[k].i]++
	}
	return counts
}

// deadlineAt converts a relative deadline to the absolute virtual time
// SubmitOptions carries.
func deadlineAt(now time.Duration, inSec float64) time.Duration {
	return now + time.Duration(inSec*float64(time.Second))
}
