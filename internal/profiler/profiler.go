// Package profiler implements the Profiler/Modeler and Model Refinement
// modules of IReS (D3.3 §2.2.1-§2.2.2): offline profiling of materialized
// operators over a grid of data-, operator- and resource-specific
// parameters, cross-validated model selection over the model zoo, and
// online refinement of the models from the metrics of every actual run.
package profiler

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/metrics"
	"github.com/asap-project/ires/internal/model"
)

// Targets estimated for every operator. Output sizes are modelled alongside
// execution time so the planner can propagate intermediate dataset sizes
// through the workflow. Cost is not learned: it is the engine's cost rate at
// the estimate's resources times the estimated execution time.
const (
	TargetExecTime   = "execTime"
	TargetCost       = "cost"
	TargetOutRecords = "outputRecords"
	TargetOutBytes   = "outputBytes"
)

// BaseFeatures are the data- and resource-specific features recorded for
// every run; operator-specific parameters are appended per operator.
var BaseFeatures = []string{"records", "bytes", "nodes", "cores", "memoryMB"}

// Space declares the profiling parameter space of one operator: the input
// scales, the operator-specific parameters and the resource configurations
// to sweep (D3.3 §2.2.1's three input-parameter categories).
type Space struct {
	Records        []int64
	BytesPerRecord int64
	Params         map[string][]float64
	Resources      []engine.Resources
}

// Points counts the grid's points, records × resources × the values of every
// parameter, without enumerating them. The product saturates at math.MaxInt.
func (s Space) Points() int {
	n := mulSat(len(s.Records), len(s.Resources))
	for _, vs := range s.Params {
		n = mulSat(n, len(vs))
	}
	return n
}

// mulSat is a*b for non-negative a and b, or math.MaxInt where that
// overflows.
func mulSat(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

// combinations enumerates the full grid, deterministically ordered.
func (s Space) combinations() []profilePoint {
	paramNames := make([]string, 0, len(s.Params))
	for k := range s.Params {
		paramNames = append(paramNames, k)
	}
	sort.Strings(paramNames)

	points := []profilePoint{{params: map[string]float64{}}}
	for _, name := range paramNames {
		var next []profilePoint
		for _, pt := range points {
			for _, v := range s.Params[name] {
				np := profilePoint{params: map[string]float64{}}
				for k, vv := range pt.params {
					np.params[k] = vv
				}
				np.params[name] = v
				next = append(next, np)
			}
		}
		points = next
	}
	var out []profilePoint
	for _, rec := range s.Records {
		for _, res := range s.Resources {
			for _, pt := range points {
				out = append(out, profilePoint{
					records: rec,
					bytes:   rec * s.BytesPerRecord,
					res:     res,
					params:  pt.params,
				})
			}
		}
	}
	return out
}

type profilePoint struct {
	records int64
	bytes   int64
	res     engine.Resources
	params  map[string]float64
}

// OperatorModels holds the trained estimation models of one materialized
// operator together with its training buffer. It refines itself as runs are
// observed.
type OperatorModels struct {
	mu sync.Mutex

	Operator  string
	Algorithm string
	Engine    string
	Features  []string

	X       [][]float64
	targets map[string][]float64
	models  map[string]model.Model
	chosen  map[string]string // target -> selected family name

	// Models are fitted by fitLocked, at the first read after the buffer
	// changed, or by a Prefit before it. fitN is the number of rows the
	// fitted models have seen; selectN is the buffer length at the latest due
	// re-selection that has not run yet (0: none). Up to date: fitN == len(X)
	// && selectN == 0. dirty is its negation as of the last noteDirtyLocked,
	// written under mu and read by Prefit without it.
	fitN, selectN int
	dirty         atomic.Bool
	stats         *refinementCounters

	// failures records feature vectors of failed runs; the smallest failing
	// record count approximates the operator's feasibility wall (OOM).
	minFailRecords float64

	zoo     *zoo
	cvFolds int
	seed    int64
	// A cross-validated re-selection comes due once at least reselectEvery
	// rows have been observed since the last one and the buffer has at least
	// doubled since then (len(X)-sinceReselect is its length at the last one);
	// in between, the incumbent family is kept and retrained on every row.
	reselectEvery int
	sinceReselect int

	// predCache memoizes the Estimates of one configuration, keyed by the
	// feature map projected onto this operator's features: the planner's DP
	// asks for the same configurations many times per table build. Any
	// mutation of the models, the training buffer or the feasibility wall
	// clears it, so cached values are always what a fresh prediction would
	// return.
	predCache            map[string]Estimates
	predHits, predMisses uint64
}

// Estimates are the estimates of one configuration: the three learned
// targets and the derived cost, under one verdict (false: no model yet, or
// beyond the feasibility wall; every value is then 0). The targets are fitted
// and committed together, so they have models or none together.
type Estimates struct {
	ExecTime, Cost, OutRecords, OutBytes float64
	OK                                   bool
}

// maxPredCache bounds the per-operator prediction cache; overflow clears it.
const maxPredCache = 4096

// invalidatePredLocked drops every memoized prediction. Callers hold om.mu.
func (om *OperatorModels) invalidatePredLocked() {
	om.predCache = nil
}

// PredictionCacheStats reports the cumulative prediction cache hit/miss
// counts of this operator's models, one per configuration read.
func (om *OperatorModels) PredictionCacheStats() (hits, misses uint64) {
	om.mu.Lock()
	defer om.mu.Unlock()
	return om.predHits, om.predMisses
}

// Profiler owns the model store: one OperatorModels per materialized
// operator.
type Profiler struct {
	mu    sync.RWMutex
	env   *engine.Environment
	store map[string]*OperatorModels
	// gen counts model-state mutations (profiling, observation).
	// Accessed atomically.
	gen uint64
	// retrainListener, if set, is told which operator's models changed on
	// every mutation — the planner wires this to a typed partial
	// invalidation (ProfilerRetrain) instead of flushing its whole cache.
	retrainListener func(opName string)
	stats           refinementCounters
	zoo             *zoo // zooLocked's memo
	// prefitMu serializes Prefit and guards prefit, its reused batch.
	prefitMu sync.Mutex
	prefit   fitBatch

	// Factories is the model zoo used for selection; defaults to
	// model.DefaultFactories.
	Factories []model.Factory
	// CVFolds is the cross-validation fold count (default 5).
	CVFolds int
	// ReselectEvery is the fewest observations between two re-selections of
	// an operator's model families (default 10); a re-selection also waits
	// until the operator's buffer has doubled since the last one, so an
	// operator with n rows has re-selected O(log n) times.
	ReselectEvery int
	seed          int64
}

// New returns a profiler over the given engine environment.
func New(env *engine.Environment, seed int64) *Profiler {
	p := &Profiler{
		env:           env,
		store:         make(map[string]*OperatorModels),
		Factories:     model.DefaultFactories(seed),
		CVFolds:       5,
		ReselectEvery: 10,
		seed:          seed,
	}
	p.stats.wins = make(map[Win]uint64)
	return p
}

// Gen returns the profiler's model-mutation generation counter.
func (p *Profiler) Gen() uint64 { return atomic.LoadUint64(&p.gen) }

// SetRetrainListener registers the callback notified with the operator name
// on every model mutation (profiling, observation). Call before the
// profiler is shared across goroutines.
func (p *Profiler) SetRetrainListener(fn func(opName string)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.retrainListener = fn
}

// noteRetrain bumps the generation counter and announces the retrained
// operator to the listener.
func (p *Profiler) noteRetrain(opName string) {
	atomic.AddUint64(&p.gen, 1)
	p.mu.RLock()
	fn := p.retrainListener
	p.mu.RUnlock()
	if fn != nil {
		fn(opName)
	}
}

// zoo is the model zoo as one operator's fits use it: the factories with their
// family names resolved once, instead of building a model per factory on
// every fit just to read Name().
type zoo struct {
	factories []model.Factory
	names     []string
	index     map[string]int // family name -> position; the first wins a duplicate
	// outputs are the candidates of the output-size targets: the positions of
	// outputFamilies, or nil (the whole zoo) unless the zoo has all of them.
	outputs []int
}

// outputFamilies are the families the output-size targets select among. The
// engines produce output sizes linear in the input, and these two won every
// output-size selection of the whole zoo (docs/profiler.md).
var outputFamilies = []string{"LinearRegression", "LeastMedSq"}

// zooLocked returns p.Factories with the names resolved, shared by every
// operator created while the field holds the same slice. Callers hold p.mu.
func (p *Profiler) zooLocked() *zoo {
	fs := p.Factories
	if z := p.zoo; z != nil && len(z.factories) == len(fs) && (len(fs) == 0 || &z.factories[0] == &fs[0]) {
		return z
	}
	z := &zoo{factories: fs, names: make([]string, len(fs)), index: make(map[string]int, len(fs))}
	for i, f := range fs {
		z.names[i] = f().Name()
		if _, dup := z.index[z.names[i]]; !dup {
			z.index[z.names[i]] = i
		}
	}
	for _, name := range outputFamilies {
		if i, ok := z.index[name]; ok {
			z.outputs = append(z.outputs, i)
		}
	}
	if len(z.outputs) < len(outputFamilies) {
		z.outputs = nil
	}
	slices.Sort(z.outputs)
	p.zoo = z
	return z
}

// Win names one selection outcome: the family cross-validation picked for a
// target.
type Win struct{ Family, Target string }

// refinementCounters are one profiler's tallies, shared by its OperatorModels.
type refinementCounters struct {
	observations, fits, selections, fitErrors, cellsTrained, cellsSkipped atomic.Uint64
	// fitWall and fitBusy are wall-clock nanoseconds: the fits' own, and the
	// summed time of their jobs. They stay out of RefinementStats, which holds
	// only counts that repeat exactly.
	fitWall, fitBusy atomic.Int64
	// dirty counts the operators whose dirty flag is set: while it is 0,
	// Prefit has nothing to do.
	dirty atomic.Int64

	mu   sync.Mutex
	wins map[Win]uint64
}

// RefinementStats is a snapshot of the refinement loop's counters.
// Observations/Fits is the coalescing factor: how many observed runs one
// model fit absorbed; CellsTrained/(CellsTrained+CellsSkipped) is the share of
// the full cross-validation grid the bounded selection had to train.
type RefinementStats struct {
	Observations uint64 // runs Observe appended to a training buffer
	Fits         uint64 // times an operator's models were brought up to date
	Selections   uint64 // cross-validated family selections, one per target
	FitErrors    uint64 // fits that failed and kept the previous models
	CellsTrained uint64 // (family, fold) cells the selections trained
	CellsSkipped uint64 // cells of the full grid that could not change a selection
	// Wins tallies the selections by outcome; its values sum to Selections.
	Wins map[Win]uint64
}

// RefinementStats returns the profiler's cumulative refinement counters.
func (p *Profiler) RefinementStats() RefinementStats {
	p.stats.mu.Lock()
	wins := maps.Clone(p.stats.wins)
	p.stats.mu.Unlock()
	return RefinementStats{
		Observations: p.stats.observations.Load(),
		Fits:         p.stats.fits.Load(),
		Selections:   p.stats.selections.Load(),
		FitErrors:    p.stats.fitErrors.Load(),
		CellsTrained: p.stats.cellsTrained.Load(),
		CellsSkipped: p.stats.cellsSkipped.Load(),
		Wins:         wins,
	}
}

// FitTime returns the wall-clock time the profiler's fits took and the summed
// time of their jobs (cross-validation cells and whole-buffer Trains); busy
// over wall x GOMAXPROCS is how busy the fits kept the workers.
func (p *Profiler) FitTime() (wall, busy time.Duration) {
	return time.Duration(p.stats.fitWall.Load()), time.Duration(p.stats.fitBusy.Load())
}

// PredictionCacheStats sums the prediction cache counters across every
// profiled operator.
func (p *Profiler) PredictionCacheStats() (hits, misses uint64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, om := range p.store {
		h, m := om.PredictionCacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// ResetPredictionCaches drops every operator's memoized Estimates
// (the hit/miss counters keep accumulating). Predictions are unchanged —
// the generation counter does not move — so this exists for cold-start
// benchmarking, not invalidation, which is automatic on model updates. It
// reads no model, so it does not trigger a deferred fit.
func (p *Profiler) ResetPredictionCaches() {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, om := range p.store {
		om.mu.Lock()
		om.predCache = nil
		om.mu.Unlock()
	}
}

// Models returns the model set of an operator, if profiled.
func (p *Profiler) Models(opName string) (*OperatorModels, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	om, ok := p.store[opName]
	return om, ok
}

// Operators lists profiled operator names, sorted.
func (p *Profiler) Operators() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	names := make([]string, 0, len(p.store))
	for n := range p.store {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (p *Profiler) ensure(opName, algorithm, engineName string, paramNames []string) *OperatorModels {
	p.mu.Lock()
	defer p.mu.Unlock()
	if om, ok := p.store[opName]; ok {
		return om
	}
	features := append([]string{}, BaseFeatures...)
	base := make(map[string]bool, len(BaseFeatures))
	for _, f := range BaseFeatures {
		base[f] = true
	}
	for _, n := range paramNames {
		if !base[n] {
			features = append(features, n)
		}
	}
	om := &OperatorModels{
		Operator:      opName,
		Algorithm:     algorithm,
		Engine:        engineName,
		Features:      features,
		targets:       make(map[string][]float64),
		models:        make(map[string]model.Model),
		chosen:        make(map[string]string),
		zoo:           p.zooLocked(),
		cvFolds:       p.CVFolds,
		seed:          p.seed,
		reselectEvery: p.ReselectEvery,
		stats:         &p.stats,
	}
	p.store[opName] = om
	return om
}

// ProfileOffline runs the offline profiling phase for one materialized
// operator: every grid point is executed on the (simulated) engine, metrics
// are collected, and models are trained with cross-validated selection. It
// returns the number of successful runs.
func (p *Profiler) ProfileOffline(opName, engineName, algorithm string, space Space) (int, error) {
	if len(space.Records) == 0 || len(space.Resources) == 0 {
		return 0, fmt.Errorf("profiler: empty profiling space for %s", opName)
	}
	paramNames := make([]string, 0, len(space.Params))
	for k := range space.Params {
		paramNames = append(paramNames, k)
	}
	sort.Strings(paramNames)
	om := p.ensure(opName, algorithm, engineName, paramNames)
	defer p.noteRetrain(opName)

	succeeded := 0
	for _, pt := range space.combinations() {
		in := engine.Input{Records: pt.records, Bytes: pt.bytes, Params: pt.params}
		run, err := p.env.Execute(engineName, algorithm, in, pt.res)
		if err != nil {
			om.observeFailure(run)
			continue
		}
		om.mu.Lock()
		om.appendRunLocked(run)
		om.mu.Unlock()
		succeeded++
	}
	if succeeded == 0 {
		return 0, fmt.Errorf("profiler: every profiling run of %s on %s failed", opName, engineName)
	}
	// Offline profiling stays eager: its cost belongs to setup, and its
	// errors to this caller.
	om.mu.Lock()
	defer om.mu.Unlock()
	om.armLocked(true)
	om.sinceReselect = 0
	if err := om.fitLocked(); err != nil {
		return succeeded, fmt.Errorf("profiler: training %s: %w", opName, err)
	}
	return succeeded, nil
}

// Observe feeds one actual-run record back into the operator's models (the
// model-refinement path). Failed runs update the feasibility wall instead.
// It is O(1): the sample is appended and the re-selection schedule advanced,
// but nothing is trained — the next read of the models (Estimate,
// ChosenFamily) fits them once, however many runs were observed in
// between. Whether a re-selection is due depends on the buffer length alone
// (docs/profiler.md, "Re-selection schedule").
func (p *Profiler) Observe(opName string, run *metrics.Run) error {
	p.mu.RLock()
	om, ok := p.store[opName]
	p.mu.RUnlock()
	if !ok {
		om = p.ensure(opName, run.Algorithm, run.Engine, run.ParamNames())
	}
	defer p.noteRetrain(opName)
	if run.Failed {
		om.observeFailure(run)
		return nil
	}
	om.mu.Lock()
	defer om.mu.Unlock()
	om.appendRunLocked(run)
	om.sinceReselect++
	reselect := om.sinceReselect >= om.reselectEvery && 2*om.sinceReselect >= len(om.X) || (len(om.chosen) == 0 && om.selectN == 0)
	if reselect {
		om.sinceReselect = 0
	}
	om.armLocked(reselect)
	om.noteDirtyLocked()
	om.stats.observations.Add(1)
	return nil
}

// Estimates predicts every target of the operator under the given feature
// values, in one read of its prediction cache. The boolean result is false
// when the operator is unprofiled.
func (p *Profiler) Estimates(opName string, feats map[string]float64) (Estimates, bool) {
	p.mu.RLock()
	om, ok := p.store[opName]
	p.mu.RUnlock()
	if !ok {
		return Estimates{}, false
	}
	return om.estimates(feats), true
}

// Estimate predicts one target metric for the operator under the given
// feature values: a read of the configuration's Estimates. The boolean result
// is false when the operator is unprofiled, the target has no model or the
// configuration is beyond the observed feasibility wall.
func (p *Profiler) Estimate(opName, target string, feats map[string]float64) (float64, bool) {
	e, ok := p.Estimates(opName, feats)
	if !ok {
		return 0, false
	}
	switch target {
	case TargetExecTime:
		return e.ExecTime, e.OK
	case TargetCost:
		return e.Cost, e.OK
	case TargetOutRecords:
		return e.OutRecords, e.OK
	case TargetOutBytes:
		return e.OutBytes, e.OK
	}
	return 0, false
}

// Feasible reports whether the configuration is inside the operator's
// observed feasibility wall. It reads no model, so it does not trigger a
// deferred fit.
func (p *Profiler) Feasible(opName string, records float64) bool {
	p.mu.RLock()
	om, ok := p.store[opName]
	p.mu.RUnlock()
	if !ok {
		return false
	}
	om.mu.Lock()
	defer om.mu.Unlock()
	return om.feasibleLocked(records)
}

// extendFeaturesLocked grows the feature set when a run carries parameters
// never seen before, back-filling historical rows with zero — the value those
// runs effectively had for a knob that did not exist yet. Without this, the
// first run to reach an operator would freeze its feature set forever and
// later parameters would be silently ignored by every model.
func (om *OperatorModels) extendFeaturesLocked(run *metrics.Run) {
	for _, name := range run.ParamNames() {
		if slices.Contains(om.Features, name) {
			continue
		}
		// Padding rewrites the old rows, so a deferred selection must run on
		// them first: it is defined on the prefix as it was when it came due.
		_ = om.fitLocked() // counted in FitErrors; the models keep their last fit
		om.Features = append(om.Features, name)
		for i := range om.X {
			om.X[i] = append(om.X[i], 0)
		}
	}
}

func (om *OperatorModels) appendRunLocked(run *metrics.Run) {
	om.invalidatePredLocked()
	om.extendFeaturesLocked(run)
	x := make([]float64, len(om.Features))
	for i, f := range om.Features {
		v, _ := run.Feature(f)
		x[i] = v
	}
	om.X = append(om.X, x)
	om.targets[TargetExecTime] = append(om.targets[TargetExecTime], run.ExecTimeSec)
	om.targets[TargetOutRecords] = append(om.targets[TargetOutRecords], float64(run.OutputRecords))
	om.targets[TargetOutBytes] = append(om.targets[TargetOutBytes], float64(run.OutputBytes))
}

func (om *OperatorModels) observeFailure(run *metrics.Run) {
	if run == nil {
		return
	}
	om.mu.Lock()
	defer om.mu.Unlock()
	rec := run.Params["records"]
	if rec > 0 && (om.minFailRecords == 0 || rec < om.minFailRecords) {
		om.minFailRecords = rec
		om.invalidatePredLocked() // the feasibility wall moved
	}
}

// armLocked records what the next fit owes the buffer as it now stands: below
// three samples cross-validation is impossible, so the first family (linear)
// is chosen outright; from there a due re-selection is pinned to the current
// length, replacing an earlier pending one — only the latest is ever visible.
func (om *OperatorModels) armLocked(reselect bool) {
	switch {
	case len(om.X) < 3:
		for target := range om.targets {
			om.chosen[target] = om.zoo.names[0]
		}
	case reselect:
		om.selectN = len(om.X)
	}
}

// upToDateLocked reports whether the models have seen every row of the
// buffer and no re-selection is pending.
func (om *OperatorModels) upToDateLocked() bool {
	return om.fitN == len(om.X) && om.selectN == 0
}

// noteDirtyLocked brings the dirty flag, and the profiler's count of dirty
// operators that Prefit reads first, in line with upToDateLocked. Every
// change of fitN, selectN or the buffer's length ends in a call.
func (om *OperatorModels) noteDirtyLocked() {
	d := !om.upToDateLocked()
	if d == om.dirty.Load() {
		return
	}
	om.dirty.Store(d)
	if d {
		om.stats.dirty.Add(1)
	} else {
		om.stats.dirty.Add(-1)
	}
}

// fitLocked brings the models up to date with the training buffer: a batch
// of one operator (fitBatch), so a lazy read and a Prefit fit one way. It is a
// no-op when nothing changed since the last fit. Every Train is a pure
// function of its inputs, so one fit here equals a refit after every
// observation (docs/profiler.md). On error the previous models stay and the
// fit is not retried until the buffer changes.
func (om *OperatorModels) fitLocked() error {
	if om.upToDateLocked() {
		return nil
	}
	var b fitBatch
	b.oms = append(b.oms, om)
	b.runLocked()
	return b.fits[0].err
}

// Prefit brings the models of the named operators up to date before they are
// read, as one model.Fit job graph on one pool of GOMAXPROCS workers: the
// planner calls it with every operator a table build may estimate, so their
// fits run side by side instead of one at a time, each when the build first
// reads it. Unknown, clean and repeated names are skipped. The models are
// those the lazy reads would fit (docs/profiler.md, "Why deferral is exact").
// With nothing dirty it returns at once, taking no lock.
func (p *Profiler) Prefit(names []string) {
	if p.stats.dirty.Load() == 0 {
		return
	}
	p.prefitMu.Lock()
	defer p.prefitMu.Unlock()
	b := &p.prefit
	p.mu.RLock()
	for _, name := range names {
		if om, ok := p.store[name]; ok && om.dirty.Load() {
			b.oms = append(b.oms, om)
		}
	}
	p.mu.RUnlock()
	slices.SortFunc(b.oms, func(a, b *OperatorModels) int { return strings.Compare(a.Operator, b.Operator) })
	b.oms = slices.Compact(b.oms)
	// Only Prefit holds more than one operator's lock, and prefitMu makes it
	// one at a time: the name order is for the job order, not for deadlock.
	for _, om := range b.oms {
		om.mu.Lock()
	}
	b.runLocked()
	for _, om := range b.oms {
		om.mu.Unlock()
	}
	clear(b.oms)
	b.oms = b.oms[:0]
}

// fitBatch is one model.Fit over the models of several operators, whose locks
// the caller holds: a build half per operator makes its model.Problem, and a
// commit half stores what came back. Its slices are kept for the next batch.
type fitBatch struct {
	oms   []*OperatorModels
	live  []*OperatorModels // the oms not up to date
	fits  []opFit           // one per live operator
	probs []model.Problem
}

// learnedTargets are the targets every row carries, in sorted order, so the
// error a fit reports is the same on every execution.
var learnedTargets = []string{TargetExecTime, TargetOutBytes, TargetOutRecords}

// opFit is one operator's part of a batch.
type opFit struct {
	jobs []model.Target // one per learned target
	err  error
}

// runLocked fits every operator of the batch that is not up to date and
// counts one fit per operator, as many wall-clock intervals as batches.
func (b *fitBatch) runLocked() {
	live := b.live[:0]
	for _, om := range b.oms {
		if !om.upToDateLocked() {
			live = append(live, om)
		} else {
			om.noteDirtyLocked() // a flag a test helper left stale
		}
	}
	b.live = live
	defer clear(b.live)
	if len(live) == 0 {
		return
	}
	b.fits, b.probs = slices.Grow(b.fits[:0], len(live))[:len(live)], b.probs[:0]
	for i, om := range live {
		b.probs = append(b.probs, om.buildFitLocked(&b.fits[i]))
	}
	stats := live[0].stats
	start := time.Now()
	fitted, errs, busy := model.Fit(b.probs, model.ByRelErr)
	stats.fitWall.Add(int64(time.Since(start)))
	stats.fitBusy.Add(int64(busy))
	for i, om := range live {
		f := &b.fits[i]
		f.err = errs[i]
		if f.err == nil {
			f.err = om.commitFitLocked(f, fitted[i])
		}
		if f.err != nil {
			stats.fitErrors.Add(1)
		}
		clear(f.jobs) // the Ys of this batch
	}
	clear(b.probs)
}

// buildFitLocked is the build half of a fit: it marks the buffer fitted,
// counts the fit and returns the problem that trains every target's model on
// the whole buffer. Each target keeps its incumbent family, or takes the one
// a bounded cross-validation picks on X[:pending] when a re-selection is
// pending.
func (om *OperatorModels) buildFitLocked(f *opFit) model.Problem {
	pending, n := om.selectN, len(om.X)
	om.fitN, om.selectN = n, 0
	om.noteDirtyLocked()
	om.stats.fits.Add(1)
	f.jobs = f.jobs[:0]
	for _, target := range learnedTargets {
		// The incumbent, until a selection it only leads replaces it. Below
		// three rows the first family is chosen outright, so only a first
		// selection (offline profiling, or one after a failed first fit) has
		// no incumbent: family 0 leads it.
		job := model.Target{Y: om.targets[target], Family: om.zoo.index[om.chosen[target]], Select: pending > 0}
		if target != TargetExecTime {
			job.Families = om.zoo.outputs
		}
		f.jobs = append(f.jobs, job)
	}
	if pending == 0 {
		pending = n
	}
	return model.Problem{Factories: om.zoo.factories, X: om.X, Targets: f.jobs, Sel: pending, K: om.cvFolds, Seed: om.seed}
}

// commitFitLocked is the commit half: it tallies the selections and, unless a
// whole-buffer Train failed, stores every target's model — nothing is
// committed unless every target trained.
func (om *OperatorModels) commitFitLocked(f *opFit, fitted []model.Fitted) error {
	om.stats.mu.Lock()
	for i, ft := range fitted {
		if f.jobs[i].Select {
			om.stats.wins[Win{om.zoo.names[ft.Family], learnedTargets[i]}]++
			om.stats.selections.Add(1)
			om.stats.cellsTrained.Add(uint64(ft.Selection.Trained))
			om.stats.cellsSkipped.Add(uint64(ft.Selection.Skipped))
		}
	}
	om.stats.mu.Unlock()
	for _, ft := range fitted {
		if ft.Err != nil {
			return ft.Err
		}
	}
	for i, target := range learnedTargets {
		om.models[target] = fitted[i].Model
		om.chosen[target] = om.zoo.names[fitted[i].Family]
	}
	return nil
}

// estimates predicts every target for a feature map. Results (including
// infeasible verdicts) are memoized per projected feature vector until the
// next model mutation. The first call after the buffer changed pays the
// deferred fit. Cost is derived from the execution-time estimate, its
// feasibility verdict included.
func (om *OperatorModels) estimates(feats map[string]float64) Estimates {
	om.mu.Lock()
	defer om.mu.Unlock()
	_ = om.fitLocked() // counted in FitErrors; the models keep their last fit
	// The cache key is the feature map projected onto this operator's
	// feature set (extra keys in feats are ignored by prediction and
	// therefore by the key too). A hit looks it up in place; only a miss
	// turns it into a string.
	var buf [128]byte
	key := buf[:0]
	for _, f := range om.Features {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(feats[f]))
	}
	if e, ok := om.predCache[string(key)]; ok {
		om.predHits++
		return e
	}
	om.predMisses++
	var e Estimates
	if len(om.models) > 0 && om.feasibleLocked(feats["records"]) {
		x := make([]float64, len(om.Features))
		for i, f := range om.Features {
			x[i] = feats[f]
		}
		e.ExecTime = predict(om.models[TargetExecTime], x)
		e.OutRecords = predict(om.models[TargetOutRecords], x)
		e.OutBytes = predict(om.models[TargetOutBytes], x)
		e.OK = true
	}
	e.Cost = engine.CostRate(feats["nodes"], feats["cores"], feats["memoryMB"]) * e.ExecTime
	if om.predCache == nil || len(om.predCache) >= maxPredCache {
		om.predCache = make(map[string]Estimates)
	}
	om.predCache[string(key)] = e
	return e
}

// predict is one target's prediction, clamped at 0.
func predict(m model.Model, x []float64) float64 {
	v := m.Predict(x)
	if v < 0 {
		v = 0
	}
	return v
}

func (om *OperatorModels) feasibleLocked(records float64) bool {
	if om.minFailRecords == 0 {
		return true
	}
	return records < om.minFailRecords*0.95
}

// SampleCount reports the training-buffer size. It reads no model, so it
// does not trigger a deferred fit.
func (om *OperatorModels) SampleCount() int {
	om.mu.Lock()
	defer om.mu.Unlock()
	return len(om.X)
}

// Samples returns copies of the training buffer's rows and of one target's
// column. It reads no model, so it does not trigger a deferred fit.
func (om *OperatorModels) Samples(target string) (X [][]float64, y []float64) {
	om.mu.Lock()
	defer om.mu.Unlock()
	X = make([][]float64, len(om.X))
	for i, row := range om.X {
		X[i] = slices.Clone(row)
	}
	return X, slices.Clone(om.targets[target])
}

// ChosenFamily reports the model family currently selected for a target.
func (om *OperatorModels) ChosenFamily(target string) string {
	om.mu.Lock()
	defer om.mu.Unlock()
	_ = om.fitLocked() // counted in FitErrors; chosen keeps its last value
	return om.chosen[target]
}
