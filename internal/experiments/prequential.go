package experiments

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/faults"
	"github.com/asap-project/ires/internal/metrics"
	"github.com/asap-project/ires/internal/profiler"
)

// Cell PREQ measures what the profiler's refinement buys: the prequential
// (test-then-train) error of its estimates over four seeded observation
// streams shaped like the run workloads. Before a run is observed, every
// learned target is estimated from the models as they stand and scored
// against the run; only then is the run observed. Everything runs on the
// simulated engines' virtual time with seeded noise, so BENCH_PREQ.json is a
// machine-independent, byte-identical baseline: a change that moves a
// prediction moves a number in it, and its diff is the accuracy review.

// preqTargets are the learned targets the streams score; cost is derived from
// the execution-time estimate, so its relative error is execTime's.
var preqTargets = []string{profiler.TargetExecTime, profiler.TargetOutRecords, profiler.TargetOutBytes}

// preqSeedCount is how many seeds every stream is replayed on; the spread of
// each error is its standard deviation over them.
const preqSeedCount = 5

// Drift re-convergence: the stream's prequential execTime error, averaged over
// a trailing window of preqWindow executions, must fall back under
// preqReconvergeFactor times its average over the last window before the swap.
const (
	preqWindow           = 20
	preqReconvergeFactor = 1.5
)

// preqStreams are the observation streams, in report order.
var preqStreams = []struct {
	name string
	run  func(r *preqReplay) error
}{
	{"text", preqText},
	{"chains", preqChains},
	{"faults", preqFaults},
	{"drift", preqDrift},
}

// PreqErr is one error of the cell: its mean over the seeds and the standard
// deviation over them.
type PreqErr struct {
	Err    float64 `json:"err"`
	Spread float64 `json:"spread"`
}

// PreqTarget is one target's mean relative error in each lifetime quarter of a
// stream (the stream's observations split into four equal runs).
type PreqTarget struct {
	Target   string    `json:"target"`
	Quarters []PreqErr `json:"quarters"`
}

// PreqReconverge is how many executions after the swap the drift stream took
// to re-converge, per seed (PostSwap+1: it did not), and their mean and
// standard deviation over the seeds.
type PreqReconverge struct {
	PostSwap int     `json:"postSwap"`
	PerSeed  []int   `json:"perSeed"`
	Mean     float64 `json:"mean"`
	Spread   float64 `json:"spread"`
}

// PreqStream is one stream's result over every seed; the refinement counts
// are summed over the seeds.
type PreqStream struct {
	Name         string          `json:"name"`
	Operators    int             `json:"operators"`
	Observed     int             `json:"observed"` // scored observations, summed over the seeds
	Targets      []PreqTarget    `json:"targets"`
	Reconverge   *PreqReconverge `json:"reconverge,omitempty"`
	Fits         uint64          `json:"fits"`
	Selections   uint64          `json:"selections"`
	CellsTrained uint64          `json:"cellsTrained"`
	CellsSkipped uint64          `json:"cellsSkipped"`
}

// PreqBench is the result of cell PREQ (BENCH_PREQ.json).
type PreqBench struct {
	Seeds   []int64      `json:"seeds"`
	Streams []PreqStream `json:"streams"`
}

// preqReplay is one stream replayed at one seed: the environment and profiler
// it runs on, and the relative error of every scored estimate, per target.
type preqReplay struct {
	seed int64
	env  *engine.Environment
	p    *profiler.Profiler
	errs [][]float64 // [target][observation]
	// swapAt is the drift stream's observation count at the swap and
	// postSwap the executions after it; both 0 on the other streams.
	swapAt, postSwap int
}

func newPreqReplay(seed int64) *preqReplay {
	env := engine.NewDefaultEnvironment(seed)
	return &preqReplay{seed: seed, env: env, p: profiler.New(env, seed), errs: make([][]float64, len(preqTargets))}
}

// observe scores the models' estimates for run under feats (its features as a
// planner would have known them), then feeds run to the profiler. A target the
// models cannot estimate scores 1: no knowledge.
func (r *preqReplay) observe(op string, run *metrics.Run, feats map[string]float64) error {
	actual := []float64{run.ExecTimeSec, float64(run.OutputRecords), float64(run.OutputBytes)}
	for i, target := range preqTargets {
		e := 1.0
		if est, ok := r.p.Estimate(op, target, feats); ok {
			e = math.Abs(est-actual[i]) / actual[i]
		}
		r.errs[i] = append(r.errs[i], e)
	}
	return r.p.Observe(op, run)
}

// runChain executes algs one after another, each link on its fastest engine
// and reading its predecessor's output, and observes every run.
func (r *preqReplay) runChain(algs, engines []string, in engine.Input) error {
	for _, alg := range algs {
		eng := r.byGroundTruth(alg, engines, in)[0]
		run, err := r.env.Execute(eng, alg, in, r.resourcesOf(eng))
		if err != nil {
			return fmt.Errorf("%s on %s: %w", alg, eng, err)
		}
		if err := r.observe(alg+"_"+eng, run, maps.Clone(run.Params)); err != nil {
			return err
		}
		in = engine.Input{Records: run.OutputRecords, Bytes: run.OutputBytes}
	}
	return nil
}

// resourcesOf is the configuration an engine runs on: one node for a
// centralized engine, the standard cluster otherwise.
func (r *preqReplay) resourcesOf(eng string) engine.Resources {
	if prof, _ := r.env.Engine(eng); prof.Centralized {
		return engine.SingleNode
	}
	return engine.StandardCluster
}

// byGroundTruth orders the engines that can run alg on in fastest first, the
// order a planner with exact models would try them in.
func (r *preqReplay) byGroundTruth(alg string, engines []string, in engine.Input) []string {
	var ok []string
	secs := map[string]float64{}
	for _, eng := range engines {
		if s, err := r.env.GroundTruthSec(eng, alg, in, r.resourcesOf(eng)); err == nil {
			ok, secs[eng] = append(ok, eng), s
		}
	}
	slices.SortStableFunc(ok, func(a, b string) int { return cmp.Compare(secs[a], secs[b]) })
	return ok
}

// profile runs the offline grid of one operator.
func (r *preqReplay) profile(eng, alg string, records []int64, bytesPerRecord int64) error {
	_, err := r.p.ProfileOffline(alg+"_"+eng, eng, alg, profiler.Space{
		Records: records, BytesPerRecord: bytesPerRecord, Resources: []engine.Resources{r.resourcesOf(eng)},
	})
	return err
}

// shuffledCycle returns n values cycling through vals, in seeded random order.
func shuffledCycle[T any](rng *rand.Rand, vals []T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = vals[i%len(vals)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// preqText is steady_text's history: the four Fig 12 text operators profiled
// over the default zoo, then 240 tf-idf -> k-means executions at six recurring
// corpus sizes, each operator on its faster engine.
func preqText(r *preqReplay) error {
	algs, engines := []string{engine.AlgTFIDF, engine.AlgKMeans}, []string{engine.EngineScikit, engine.EngineSpark}
	for _, alg := range algs {
		for _, eng := range engines {
			if err := r.profile(eng, alg, []int64{1_000, 3_000, 10_000, 30_000, 100_000, 1_000_000}, 5_000); err != nil {
				return err
			}
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	for _, docs := range shuffledCycle(rng, []int64{50_000, 70_000, 90_000, 110_000, 130_000, 150_000}, 240) {
		if err := r.runChain(algs, engines, engine.Input{Records: docs, Bytes: docs * 5_000}); err != nil {
			return err
		}
	}
	return nil
}

// preqSynthShape is the cost shape of synthetic algorithm i of the chain
// workload: compute per record spreads over two decades, every fourth
// algorithm shuffles (n log n) and every eighth iterates.
func preqSynthShape(i int) engine.Workload {
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

// preqChains is tenant_mix's history: 96 operators (32 synthetic algorithms on
// Spark, MapReduce and Java), each profiled on a four-point grid, then
// three-operator chains over six input sizes, every algorithm used equally
// often, each link on its fastest engine.
func preqChains(r *preqReplay) error {
	const algs, chains = 32, 720
	engines := []string{engine.EngineSpark, engine.EngineMapReduce, engine.EngineJava}
	var names []string
	for i := range algs {
		shape := preqSynthShape(i)
		r.env.RegisterWorkload(shape)
		names = append(names, shape.Algorithm)
		for _, eng := range engines {
			if err := r.profile(eng, shape.Algorithm, []int64{10_000, 100_000, 1_000_000, 5_000_000}, 200); err != nil {
				return err
			}
		}
	}
	rng := rand.New(rand.NewSource(r.seed))
	sizes := shuffledCycle(rng, []int64{20_000, 60_000, 200_000, 600_000, 2_000_000, 4_000_000}, chains)
	links := shuffledCycle(rng, names, 3*chains)
	for k, size := range sizes {
		if err := r.runChain(links[3*k:3*k+3], engines, engine.Input{Records: size, Bytes: size * 200}); err != nil {
			return err
		}
	}
	return nil
}

// preqFaults is fault_storm's history: the HelloWorld chain of Table 1, its
// nine operators profiled on a three-point grid, then 210 executions under
// transient failures (15 % of attempts; not observed, retried up to four
// times, then the next-fastest engine) and 4x stragglers (7.5 % of runs;
// observed, with the stretch as a parameter, as the executor reports them).
func preqFaults(r *preqReplay) error {
	chain := []struct {
		alg     string
		engines []string
	}{
		{engine.AlgHello, []string{engine.EnginePython}},
		{engine.AlgHello1, []string{engine.EngineSpark, engine.EnginePython}},
		{engine.AlgHello2, []string{engine.EngineSpark, engine.EngineMLlib, engine.EnginePostgreSQL, engine.EngineHive}},
		{engine.AlgHello3, []string{engine.EngineSpark, engine.EnginePython}},
	}
	for _, op := range chain {
		for _, eng := range op.engines {
			if err := r.profile(eng, op.alg, []int64{200, 1_000, 5_000}, 1_000); err != nil {
				return err
			}
		}
	}
	sched := faults.New(faults.Config{
		Seed:      r.seed,
		Default:   faults.Transient{FailProb: 0.15},
		Straggler: faults.Straggler{Prob: 0.075, Factor: 4},
	})
	rng := rand.New(rand.NewSource(r.seed))
	for _, size := range shuffledCycle(rng, []int64{400, 800, 1_600, 3_200}, 210) {
		in := engine.Input{Records: size, Bytes: size * 1_000}
		for _, op := range chain {
			run, err := r.execWithFaults(sched, op.alg, r.byGroundTruth(op.alg, op.engines, in), in)
			if err != nil {
				return err
			}
			if run == nil {
				break // every attempt failed, and the workflow with it
			}
			in = engine.Input{Records: run.OutputRecords, Bytes: run.OutputBytes}
		}
	}
	return nil
}

// execWithFaults runs alg on the first engine, in order, whose attempt
// survives the fault schedule, and observes that run; nil if none does.
func (r *preqReplay) execWithFaults(sched *faults.Schedule, alg string, engines []string, in engine.Input) (*metrics.Run, error) {
	for _, eng := range engines {
		op := alg + "_" + eng
		for attempt := 1; attempt <= 4; attempt++ {
			run, err := r.env.Execute(eng, alg, in, r.resourcesOf(eng))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", op, err)
			}
			if sched.RunFault(eng, op, attempt, run.ExecTimeSec, 0) != nil {
				continue
			}
			feats := maps.Clone(run.Params)
			if f := sched.StretchFactor(eng, op, 0); f > 1 {
				run.ExecTimeSec *= f
				run.CostUnits *= f
				run.Params["faultStretch"] = f
			}
			return run, r.observe(op, run, feats)
		}
	}
	return nil, nil
}

// preqDrift is Fig 16b's history: Wordcount on MapReduce, with no offline
// profile, learned over Fig 16's four-family zoo; the cluster's HDDs are
// swapped for SSDs after 60 executions, then 240 more follow.
func preqDrift(r *preqReplay) error {
	const before, after = 60, 240
	m := fig16Ops()[0]
	r.p.Factories = fig16Factories(r.seed)
	rng := rand.New(rand.NewSource(r.seed + 7))
	for i := range before + after {
		if i == before {
			infra := r.env.Infrastructure()
			infra.DiskFactor = 0.3 // HDD -> SSD
			r.env.SetInfrastructure(infra)
			r.swapAt, r.postSwap = len(r.errs[0]), after
		}
		in, res := m.sampleSetup(rng)
		run, err := r.env.Execute(m.engine, m.alg, in, res)
		if err != nil {
			return fmt.Errorf("%s: %w", m.opName, err)
		}
		if err := r.observe(m.opName, run, maps.Clone(run.Params)); err != nil {
			return err
		}
	}
	return nil
}

// reconverge is the number of executions after the swap until the trailing
// window's mean execTime error is back under the factor times the last
// pre-swap window's; postSwap+1 if it never is.
func (r *preqReplay) reconverge() int {
	errs := r.errs[0]
	pre := mean(errs[r.swapAt-preqWindow : r.swapAt])
	for k := preqWindow; k <= r.postSwap; k++ {
		if mean(errs[r.swapAt+k-preqWindow:r.swapAt+k]) < preqReconvergeFactor*pre {
			return k
		}
	}
	return r.postSwap + 1
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// meanSpread returns the mean of v and its sample standard deviation, both
// rounded to four decimals: the file holds what the seeds agree on, not the
// last bits of a floating-point sum.
func meanSpread(v []float64) (m, sd float64) {
	m, ss := mean(v), 0.0
	for _, x := range v {
		ss += (x - m) * (x - m)
	}
	round4 := func(x float64) float64 { return math.Round(x*1e4) / 1e4 }
	return round4(m), round4(math.Sqrt(ss / float64(len(v)-1)))
}

// RunPreqBench replays every stream at seeds seed .. seed+4, the replays
// side by side on GOMAXPROCS goroutines (each is deterministic on its own).
func RunPreqBench(seed int64) (*PreqBench, error) {
	b := &PreqBench{}
	for i := range preqSeedCount {
		b.Seeds = append(b.Seeds, seed+int64(i))
	}
	replays := make([][]*preqReplay, len(preqStreams))
	errs := make([]error, len(preqStreams)*preqSeedCount)
	var wg sync.WaitGroup
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for s, st := range preqStreams {
		replays[s] = make([]*preqReplay, preqSeedCount)
		for i, sd := range b.Seeds {
			r := newPreqReplay(sd)
			replays[s][i] = r
			wg.Add(1)
			go func() {
				defer wg.Done()
				slots <- struct{}{}
				defer func() { <-slots }()
				if err := st.run(r); err != nil {
					errs[s*preqSeedCount+i] = fmt.Errorf("%s seed %d: %w", st.name, sd, err)
				}
			}()
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for s, st := range preqStreams {
		out := PreqStream{Name: st.name}
		for _, r := range replays[s] {
			out.Observed += len(r.errs[0])
			stats := r.p.RefinementStats()
			out.Fits += stats.Fits
			out.Selections += stats.Selections
			out.CellsTrained += stats.CellsTrained
			out.CellsSkipped += stats.CellsSkipped
		}
		out.Operators = len(replays[s][0].p.Operators())
		for t, target := range preqTargets {
			pt := PreqTarget{Target: target}
			for q := range 4 {
				var perSeed []float64
				for _, r := range replays[s] {
					n := len(r.errs[t])
					perSeed = append(perSeed, mean(r.errs[t][q*n/4:(q+1)*n/4]))
				}
				var e PreqErr
				e.Err, e.Spread = meanSpread(perSeed)
				pt.Quarters = append(pt.Quarters, e)
			}
			out.Targets = append(out.Targets, pt)
		}
		if replays[s][0].postSwap > 0 {
			rc := &PreqReconverge{PostSwap: replays[s][0].postSwap}
			var ks []float64
			for _, r := range replays[s] {
				k := r.reconverge()
				rc.PerSeed, ks = append(rc.PerSeed, k), append(ks, float64(k))
			}
			rc.Mean, rc.Spread = meanSpread(ks)
			out.Reconverge = rc
		}
		b.Streams = append(b.Streams, out)
	}
	return b, nil
}

// preqBounds is the yardstick the gate holds the cell to: per stream/target,
// each lifetime quarter's error plus its seed spread as BENCH_PREQ.json
// recorded them when the cell was introduced (every prediction as it was then,
// with re-selection every ReselectEvery observations). A change that moves
// predictions may regenerate the file; it may not leave an error above these.
// The output-size targets are learned exactly, so their bound is zero where
// every seed's error was.
var preqBounds = map[string][4]float64{
	"text/execTime":        {0.0730, 0.0686, 0.0699, 0.0671},
	"text/outputRecords":   {0, 0, 0, 0},
	"text/outputBytes":     {0, 0, 0, 0},
	"chains/execTime":      {0.1364, 0.0949, 0.0932, 0.0847},
	"chains/outputRecords": {0, 0, 0, 0},
	"chains/outputBytes":   {0, 0, 0, 0},
	"faults/execTime":      {0.1319, 0.1470, 0.1220, 0.1298},
	"faults/outputRecords": {0, 0, 0, 0},
	"faults/outputBytes":   {0, 0, 0, 0},
	"drift/execTime":       {0.4821, 0.3471, 0.2304, 0.1704},
	"drift/outputRecords":  {0.9208, 0.0061, 0, 0},
	"drift/outputBytes":    {0.9208, 0.0061, 0, 0},
}

// preqReconvergeBound is the drift stream's mean re-convergence plus its seed
// spread when the yardstick was set (79.8 + 26.3 executions).
const preqReconvergeBound = 106.1

// Gate returns an error naming the first stream and target whose error rose
// above the yardstick, or the drift stream if it re-converges more slowly.
func (b *PreqBench) Gate() error {
	checked, drift := 0, false
	for _, s := range b.Streams {
		for _, t := range s.Targets {
			key := s.Name + "/" + t.Target
			bound, ok := preqBounds[key]
			if !ok || len(t.Quarters) != len(bound) {
				return fmt.Errorf("%s: %d quarters, and no yardstick for them", key, len(t.Quarters))
			}
			for q, e := range t.Quarters {
				if e.Err > bound[q] {
					return fmt.Errorf("%s quarter %d: error %.4f is above the yardstick's %.4f (committed error plus seed spread)", key, q+1, e.Err, bound[q])
				}
			}
			checked++
		}
		if rc := s.Reconverge; rc != nil {
			drift = true
			if rc.Mean > preqReconvergeBound {
				return fmt.Errorf("%s re-converges %.1f executions after the swap, more slowly than the yardstick's %.1f", s.Name, rc.Mean, preqReconvergeBound)
			}
		}
	}
	if checked != len(preqBounds) || !drift {
		return fmt.Errorf("%d of %d stream/target errors measured, drift re-convergence measured: %v", checked, len(preqBounds), drift)
	}
	return nil
}

// Report renders the cell as an ires-bench report.
func (b *PreqBench) Report() *Report {
	r := &Report{ID: "PREQ", Title: fmt.Sprintf("Prequential (test-then-train) relative estimation error, mean ± spread over seeds %d..%d", b.Seeds[0], b.Seeds[len(b.Seeds)-1])}
	errs := Table{Title: "mean relative error per lifetime quarter", Header: []string{"stream", "target", "Q1", "Q2", "Q3", "Q4"}}
	work := Table{Title: "refinement work, summed over the seeds", Header: []string{"stream", "operators", "observed", "fits", "selections", "cells trained", "cells skipped"}}
	for _, s := range b.Streams {
		for _, t := range s.Targets {
			row := []string{s.Name, t.Target}
			for _, q := range t.Quarters {
				row = append(row, fmt.Sprintf("%.4f±%.4f", q.Err, q.Spread))
			}
			errs.Rows = append(errs.Rows, row)
		}
		work.Rows = append(work.Rows, []string{s.Name, fmt.Sprint(s.Operators), fmt.Sprint(s.Observed),
			fmt.Sprint(s.Fits), fmt.Sprint(s.Selections), fmt.Sprint(s.CellsTrained), fmt.Sprint(s.CellsSkipped)})
		if rc := s.Reconverge; rc != nil {
			r.Note("%s: executions after the swap until the %d-run error is under %.1fx its pre-swap level: %v, mean %.1f±%.1f (of %d; yardstick %.1f)",
				s.Name, preqWindow, preqReconvergeFactor, rc.PerSeed, rc.Mean, rc.Spread, rc.PostSwap, preqReconvergeBound)
		}
	}
	r.Tables = append(r.Tables, errs, work)
	return r
}
