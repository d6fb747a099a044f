// Package ires is an open-source reproduction of IReS, the Intelligent
// Multi-Engine Resource Scheduler of Doka et al. (SIGMOD 2015 / ASAP D3.3):
// a meta-scheduler that plans and executes complex analytics workflows over
// multiple engines and datastores, choosing per-operator the most
// advantageous implementation, inserting data movements between engines,
// provisioning resources elastically and recovering from failures by
// partially replanning around materialized intermediates.
//
// The engines themselves (Spark, Hadoop, Hama, Java, scikit, PostgreSQL,
// MemSQL, ...) are high-fidelity simulations on a discrete-event virtual
// clock — see DESIGN.md for the substitution rationale — while all IReS
// logic (metadata matching, DP planning, profiling/modelling, NSGA-II
// provisioning, fault-tolerant execution) is real.
//
// Basic use:
//
//	p, _ := ires.NewPlatform(ires.Options{Seed: 1})
//	p.RegisterDataset("docs", "Execution.path=hdfs:///docs\n...")
//	p.RegisterOperator("tfidf_spark", "Constraints.Engine=Spark\n...")
//	p.ProfileOperator("tfidf_spark", space)
//	wf, _ := p.NewWorkflow().
//		Dataset("docs").
//		Operator("tfidf", "Constraints.OpSpecification.Algorithm.name=TF_IDF").
//		...
//	plan, _ := p.Plan(wf)
//	result, _ := p.Execute(wf, plan)
package ires

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"github.com/asap-project/ires/internal/cluster"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/executor"
	"github.com/asap-project/ires/internal/faults"
	"github.com/asap-project/ires/internal/metrics"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/profiler"
	"github.com/asap-project/ires/internal/provision"
	"github.com/asap-project/ires/internal/scheduler"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/vtime"
	"github.com/asap-project/ires/internal/workflow"
)

// Re-exported core types: the platform's full object model is usable
// through the public package alone.
type (
	// Workflow is an abstract analytics workflow DAG.
	Workflow = workflow.Graph
	// Plan is a materialized multi-engine execution plan.
	Plan = planner.Plan
	// PlanStep is one operator or move step of a plan.
	PlanStep = planner.Step
	// ExecutionResult summarises a workflow execution.
	ExecutionResult = executor.Result
	// Resources describes provisioned container resources.
	Resources = engine.Resources
	// ProfileSpace declares an operator's offline profiling grid.
	ProfileSpace = profiler.Space
	// RunMetrics is the monitoring record of one operator run.
	RunMetrics = metrics.Run
	// Environment is the (simulated) multi-engine cloud.
	Environment = engine.Environment
	// OperatorLibrary stores materialized operator descriptions.
	OperatorLibrary = operator.Library
	// ProvisionOption is one Pareto-optimal resource choice.
	ProvisionOption = provision.Option
	// RetryPolicy bounds per-step same-engine retries (see executor).
	RetryPolicy = executor.RetryPolicy
	// CheckpointPolicy enables sub-operator checkpointing: bounded-latency
	// preemption and mid-operator crash recovery (see executor).
	CheckpointPolicy = executor.CheckpointPolicy
	// FaultConfig declares a deterministic fault-injection schedule.
	FaultConfig = faults.Config
	// FaultTransient parameterises per-engine transient failures.
	FaultTransient = faults.Transient
	// EngineOutage is a permanent engine-service failure at a virtual time.
	EngineOutage = faults.Outage
	// NodeCrash kills a cluster node at a virtual time.
	NodeCrash = faults.NodeCrash
	// StragglerFaults parameterises slowdown injection.
	StragglerFaults = faults.Straggler
	// OOMKillFaults parameterises the memory-oversubscription OOM killer
	// (effective only with Options.MemOvercommit above 1).
	OOMKillFaults = faults.OOMKill
	// FaultStats counts what an armed fault schedule actually injected.
	FaultStats = faults.Stats
	// TraceEvent is one virtual-time-stamped structured event.
	TraceEvent = trace.Event
	// TraceEventType names the event vocabulary (see internal/trace).
	TraceEventType = trace.EventType
	// Tracer receives structured events from every platform layer.
	Tracer = trace.Tracer
	// MetricsRegistry is the platform's metrics registry (see Metrics).
	MetricsRegistry = trace.Registry
	// Run is the handle of one submitted workflow (see Submit).
	Run = scheduler.Run
	// RunSnapshot is a point-in-time view of a submitted run.
	RunSnapshot = scheduler.Snapshot
	// AdmissionPolicy decides when queued runs start, how many nodes they
	// lease, and whether active runs are resized or preempted (see FIFO,
	// FairShare, Deadline and CostQuota).
	AdmissionPolicy = scheduler.Policy
	// SubmitOptions carries the scheduling metadata of one submission
	// (label, tenant, deadline).
	SubmitOptions = scheduler.SubmitOptions
)

// FIFO returns the admission policy that runs one workflow at a time with
// the whole cluster leased to it (strict submission order).
func FIFO() AdmissionPolicy { return scheduler.FIFO{} }

// FairShare returns the admission policy that runs up to maxConcurrent
// workflows at once, each leasing an equal slice of the cluster's nodes.
func FairShare(maxConcurrent int) AdmissionPolicy {
	return scheduler.FairShare{MaxConcurrent: maxConcurrent}
}

// HierarchicalFairShare returns the CFS-style fair policy over a tenant →
// user → run hierarchy: every running run charges virtual runtime to its
// tenant and user at rate nodes/(weight·2^priority), and admission always
// goes to the least-charged tenant's least-charged user's best run — so
// cluster time converges to equal shares per tenant, equal shares per user
// within a tenant, and SubmitOptions.Priority acts as a runtime multiplier.
// Like FairShare it admits up to maxConcurrent runs on equal node slices.
func HierarchicalFairShare(maxConcurrent int) AdmissionPolicy {
	return scheduler.HierarchicalFairShare{MaxConcurrent: maxConcurrent}
}

// Deadline returns the earliest-deadline-first policy: waiting runs are
// ordered by their absolute deadlines (submit with SubmitWith and a
// Deadline), and a waiting run with a tighter deadline may preempt an active
// one — cooperatively, at the victim's next completed-operator boundary —
// when the planner's time estimates say the victim can still meet its own
// deadline after the suspension. The suspended run resumes later via
// replan-from-done-set, so none of its completed operators re-execute.
func Deadline() AdmissionPolicy { return scheduler.Deadline{} }

// CostQuota returns the per-tenant budget policy: each tenant's concurrently
// committed modeled cost (sum of planner cost estimates over its active and
// suspended runs) must stay within its budget; runs that would exceed it
// queue until earlier runs finish, and runs whose estimate can never fit the
// budget are rejected outright. Unlisted tenants get defaultBudget (0 or
// negative = unlimited).
func CostQuota(budgets map[string]float64, defaultBudget float64) AdmissionPolicy {
	return scheduler.CostQuota{Budgets: budgets, DefaultBudget: defaultBudget}
}

// DRF returns the Dominant Resource Fairness policy: each tenant's dominant
// share is the larger of its cores share and its memory share across active
// leases, divided by the tenant's weight (unlisted tenants weigh 1), and
// admission always goes to a waiting run of the minimum-dominant-share
// tenant — so cores-heavy and memory-heavy tenants each saturate their own
// bottleneck dimension instead of splitting node counts. Submit runs with
// SubmitOptions.DemandCores/DemandMemMB to lease per-node slices; whole-node
// submissions participate with full-node footprints. When all maxConcurrent
// slots are busy, a sufficiently starved tenant preempts the most-over-share
// tenant's latest run, gated on the victim still making its deadline.
func DRF(weights map[string]float64, maxConcurrent int) AdmissionPolicy {
	return scheduler.DRF{Weights: weights, MaxConcurrent: maxConcurrent}
}

// Typed execution failures (see the executor package).
var (
	// ErrTooManyReplans is returned when the failure/replan loop exceeds
	// its bound of five replans.
	ErrTooManyReplans = executor.ErrTooManyReplans
	// ErrDeadlock is returned when no step can make progress.
	ErrDeadlock = executor.ErrDeadlock
	// ErrContainersLost marks work invalidated by a node failure.
	ErrContainersLost = executor.ErrContainersLost
	// ErrFaultInjected marks a transient failure produced by the
	// chaos-injection layer.
	ErrFaultInjected = faults.ErrInjected
	// ErrRunCanceled marks a run stopped through its handle's Cancel.
	ErrRunCanceled = scheduler.ErrCanceled
	// ErrRunRejected marks a run refused outright by the admission policy
	// (e.g. its cost estimate can never fit the tenant's budget).
	ErrRunRejected = scheduler.ErrRejected
)

// Engine names of the default deployment.
const (
	EngineJava       = engine.EngineJava
	EngineSpark      = engine.EngineSpark
	EngineHama       = engine.EngineHama
	EngineMapReduce  = engine.EngineMapReduce
	EngineScikit     = engine.EngineScikit
	EnginePostgreSQL = engine.EnginePostgreSQL
	EngineMemSQL     = engine.EngineMemSQL
	EnginePython     = engine.EnginePython
	EngineCilk       = engine.EngineCilk
)

// Policy is the user-defined optimization objective.
type Policy int

// Optimization policies.
const (
	// MinTime minimises estimated workflow execution time.
	MinTime Policy = iota
	// MinCost minimises estimated monetary/resource cost.
	MinCost
	// Balanced trades the two off (0.5/0.5 normalised blend; resource
	// provisioning picks the knee of the Pareto front).
	Balanced
)

// Options configures a Platform.
type Options struct {
	// Seed drives every stochastic component (noise, model selection, GA).
	Seed int64
	// ClusterNodes / CoresPerNode / MemMBPerNode size the simulated
	// cluster; zero values use the paper's 16 x (2 cores, 3456MB).
	ClusterNodes int
	CoresPerNode int
	MemMBPerNode int
	// Policy is the optimization objective (default MinTime).
	Policy Policy
	// ElasticProvisioning enables NSGA-II resource provisioning per
	// operator; when off, operators get the full cluster (centralized
	// engines a single node).
	ElasticProvisioning bool
	// Retry bounds per-step same-engine retries with exponential backoff
	// before a failure falls through to replanning. The zero value keeps
	// the historical semantics: one attempt, then replan.
	Retry RetryPolicy
	// TimeoutFactor enables straggler speculation: a step running longer
	// than TimeoutFactor × its predicted duration gets a backup copy on
	// the next-best engine, and the first finisher wins. Zero disables.
	TimeoutFactor float64
	// Checkpoint enables sub-operator checkpointing: iterative operators
	// checkpoint at iteration boundaries (single-pass ones at partition
	// boundaries), preemption suspends at the next checkpoint instead of
	// the operator boundary, and retries/speculation/resume seed the
	// banked progress instead of restarting the operator. The zero value
	// disables the layer entirely.
	Checkpoint CheckpointPolicy
	// BreakerThreshold trips the engine circuit breaker after that many
	// consecutive failures, excluding the engine from replans and
	// speculation for BreakerCooldown (default 120s of virtual time).
	// Zero disables the breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Tracer, when non-nil, receives every structured event the platform
	// emits, in addition to the built-in recorder that feeds Metrics() and
	// TraceEvents().
	Tracer Tracer
	// Admission picks the multi-workflow admission policy for Submit/Run
	// (default FIFO: one workflow at a time, whole cluster leased).
	Admission AdmissionPolicy
	// MemOvercommit lets allocations oversubscribe each node's memory up to
	// MemMB x ratio (cores are never overcommitted). Zero or 1 disables
	// overcommit; values in (0,1) are rejected. Pair with FaultConfig.OOM to
	// turn oversubscription into injected OOM kills.
	MemOvercommit float64
}

const (
	// monitorPeriod is the health/service polling period, in virtual time.
	monitorPeriod = 10 * time.Second
	// launchOverheadSec is the per-step YARN container launch overhead.
	launchOverheadSec = 1.5
)

// Platform is the IReS runtime: interface, optimizer and executor layers
// wired over the simulated multi-engine cloud.
type Platform struct {
	opts Options

	Env      *engine.Environment
	Clock    *vtime.Clock
	Cluster  *cluster.Cluster
	Monitor  *cluster.Monitor
	Library  *operator.Library
	Profiler *profiler.Profiler

	planner     *planner.Planner
	provisioner *provision.Provisioner
	breaker     *executor.CircuitBreaker
	sched       *scheduler.Scheduler

	// mu guards the mutable hooks shared between the API surface and the
	// per-run executors built while workflows are in flight.
	mu            sync.Mutex
	faults        *faults.Schedule
	trivialReplan bool
	runObserver   func(op string, run *RunMetrics)

	abstracts map[string]*operator.Abstract

	recorder *trace.Recorder
	tracer   trace.Tracer
}

// NewPlatform builds a platform with the default engine deployment.
func NewPlatform(opts Options) (*Platform, error) {
	if opts.ClusterNodes == 0 {
		opts.ClusterNodes = engine.StandardCluster.Nodes
	}
	if opts.CoresPerNode == 0 {
		opts.CoresPerNode = engine.StandardCluster.CoresPerN
	}
	if opts.MemMBPerNode == 0 {
		opts.MemMBPerNode = engine.StandardCluster.MemMBPerN
	}

	p := &Platform{
		opts:      opts,
		Env:       engine.NewDefaultEnvironment(opts.Seed),
		Clock:     vtime.NewClock(),
		Library:   operator.NewLibrary(),
		abstracts: make(map[string]*operator.Abstract),
	}
	p.recorder = trace.NewRecorder(0)
	p.tracer = trace.Multi(p.recorder, opts.Tracer)
	p.Cluster = cluster.New(p.Clock, opts.ClusterNodes, opts.CoresPerNode, opts.MemMBPerNode)
	p.Cluster.SetTracer(p.tracer)
	if opts.MemOvercommit != 0 {
		if err := p.Cluster.SetMemOvercommit(opts.MemOvercommit); err != nil {
			return nil, err
		}
	}
	p.Monitor = cluster.NewMonitor(p.Cluster, p.Env, monitorPeriod)
	p.Profiler = profiler.New(p.Env, opts.Seed)
	p.provisioner = provision.New(p.Profiler, p.clusterBounds(), opts.Seed)
	p.breaker = executor.NewCircuitBreaker(p.Clock, opts.BreakerThreshold, opts.BreakerCooldown)
	p.breaker.Tracer = p.tracer

	pl, err := planner.New(planner.Config{
		Library:         p.Library,
		Estimator:       libraryEstimator{prof: p.Profiler, lib: p.Library},
		MoveSeconds:     p.Env.TransferSec,
		Objective:       p.objective(),
		EngineAvailable: p.engineUsable,
		Resources:       p.chooseResources,
		Tracer:          p.tracer,
		Now:             p.Clock.Now,
		Epoch:           p.plannerEpoch,
	})
	if err != nil {
		return nil, err
	}
	p.planner = pl
	p.recorder.Registry().AddCollector(p.collectMetrics)
	// Typed invalidation wiring: profiler retrains evict only the
	// planner-cache entries that estimated the retrained operator
	// (invalidate.go) instead of flushing wholesale. Breaker transitions need
	// no wiring: the planner probes engineUsable at every build boundary and
	// keys its cache by what it reads.
	p.Profiler.SetRetrainListener(pl.ProfilerRetrain)
	sched, err := scheduler.New(scheduler.Config{
		Clock:       p.Clock,
		Cluster:     p.Cluster,
		Policy:      opts.Admission,
		Plan:        func(g *workflow.Graph) (*planner.Plan, error) { return p.planner.Plan(g) },
		NewExecutor: p.newExecutor,
		Estimate:    p.estimateRun,
		Tracer:      p.tracer,
	})
	if err != nil {
		return nil, err
	}
	p.sched = sched
	p.Monitor.Start()
	return p, nil
}

// estimateRun is the scheduler's estimate hook: a dry planning pass yields
// the workflow's modeled execution time and cost, feeding deadline/budget
// policies. Only invoked when the active policy asks for estimates.
func (p *Platform) estimateRun(g *workflow.Graph) (float64, float64, error) {
	plan, err := p.planner.Plan(g)
	if err != nil {
		return 0, 0, err
	}
	return plan.EstTimeSec, plan.EstCost, nil
}

// newExecutor is the one place an executor is wired. Given a scheduler
// context it builds the executor of one run segment: confined to the
// segment's node lease, cooperating on the shared clock through the segment's
// party, honouring the scheduler's cancellation and cooperative-suspension
// probes, and stamping the run id on every trace event. Given a context with
// only a party — no lease, probes or run id — it builds the solo executor
// behind Execute, which runs on the whole cluster.
func (p *Platform) newExecutor(ctx scheduler.ExecContext) scheduler.Exec {
	p.mu.Lock()
	var inj executor.Injector
	if p.faults != nil {
		inj = p.faults
	}
	var rp executor.Replanner = replanAdapter{p.planner}
	if p.trivialReplan {
		rp = trivialReplanAdapter{p.planner}
	}
	p.mu.Unlock()
	return &executor.Executor{
		Env:               p.Env,
		Cluster:           p.Cluster,
		Clock:             p.Clock,
		Observer:          p.observe,
		Replanner:         rp,
		LaunchOverheadSec: launchOverheadSec,
		Retry:             p.opts.Retry,
		TimeoutFactor:     p.opts.TimeoutFactor,
		Speculate:         p.speculate,
		Faults:            inj,
		Breaker:           p.breaker,
		Monitor:           p.Monitor,
		Tracer:            trace.WithRun(p.tracer, ctx.RunID),
		Party:             ctx.Party,
		Lease:             ctx.Lease,
		Canceled:          ctx.Canceled,
		Suspend:           ctx.Suspend,
		Checkpoint:        p.opts.Checkpoint,
		CkptScope:         ctx.RunID,
	}
}

func (p *Platform) clusterBounds() engine.Resources {
	return engine.Resources{
		Nodes:     p.opts.ClusterNodes,
		CoresPerN: p.opts.CoresPerNode,
		MemMBPerN: p.opts.MemMBPerNode,
	}
}

func (p *Platform) objective() planner.Objective {
	switch p.opts.Policy {
	case MinCost:
		return planner.MinCost
	case Balanced:
		return planner.Weighted(0.5, 0.5)
	default:
		return planner.MinTime
	}
}

func (p *Platform) provisionPolicy() provision.Policy {
	switch p.opts.Policy {
	case MinCost:
		return provision.MinCost
	case Balanced:
		return provision.Balanced
	default:
		return provision.MinTime
	}
}

// engineUsable is the planner's availability hook: an engine is plannable
// when its service is ON and the circuit breaker has not blacklisted it.
func (p *Platform) engineUsable(name string) bool {
	return p.Env.Available(name) && p.breaker.Allows(name)
}

// plannerEpoch is the planner's untyped (wholesale-flush) invalidation
// hook. Only infrastructure-shaped environment changes — engine
// registrations and infrastructure swaps, which shift every estimate —
// remain here. Availability changes (environment flips, breaker
// trips/resets/half-opens) evict nothing: the planner snapshots engineUsable
// at every build boundary and keys each node result by the availability of
// its own engines. Profiler refits arrive as typed ProfilerRetrain events,
// which evict only the dependent cache entries.
func (p *Platform) plannerEpoch() uint64 {
	return p.Env.InfraGen()
}

// PlannerCacheStats exposes the planner's memoization counters (see
// planner.CacheStats).
func (p *Platform) PlannerCacheStats() planner.CacheStats {
	return p.planner.CacheStats()
}

// ResetPlannerCache drops every memoization layer the planner leans on —
// the DP memo, the profiler's prediction cache and the library's match
// index — forcing the next Plan/Replan/ParetoPlans to run fully cold.
// Benchmarks use it to measure cold-start planning; normal invalidation is
// automatic.
func (p *Platform) ResetPlannerCache() {
	p.planner.FlushCache()
	p.Profiler.ResetPredictionCaches()
	p.Library.ResetMatchIndex()
}

// speculate picks the next-best backup for a straggling step: any
// materialized operator implementing the same abstract algorithm — including
// the step's own operator, which models YARN-style speculative re-execution
// on fresh containers — on a live, non-blacklisted engine, ranked by
// estimated execution time at the step's input scale. It is the executor's
// backup hook for speculative execution.
func (p *Platform) speculate(s *planner.Step) (executor.SpeculativeChoice, bool) {
	var (
		best  executor.SpeculativeChoice
		bestT float64
		found bool
	)
	est := libraryEstimator{prof: p.Profiler, lib: p.Library}
	feats := make(map[string]float64)
	for _, mo := range p.Library.Operators() {
		if mo.Algorithm() == "" || mo.Algorithm() != s.Algorithm {
			continue
		}
		if !p.engineUsable(mo.Engine()) {
			continue
		}
		res := p.chooseResources(mo, s.InRecords, s.InBytes)
		clear(feats)
		feats["records"] = float64(s.InRecords)
		feats["bytes"] = float64(s.InBytes)
		feats["nodes"] = float64(res.Nodes)
		feats["cores"] = float64(res.CoresPerN)
		feats["memoryMB"] = float64(res.MemMBPerN)
		for k, v := range mo.Params() {
			feats[k] = v
		}
		e := est.Estimates(mo.Name, feats)
		if !e.ExecTimeOK {
			continue
		}
		// Library.Operators is name-sorted, so strict < keeps ties
		// deterministic (first name wins).
		if !found || e.ExecTime < bestT {
			found = true
			bestT = e.ExecTime
			best = executor.SpeculativeChoice{
				OpName:    mo.Name,
				Engine:    mo.Engine(),
				Algorithm: mo.Algorithm(),
				Res:       res,
				Params:    mo.Params(),
			}
		}
	}
	return best, found
}

// chooseResources is the planner's provisioning hook.
func (p *Platform) chooseResources(mo *operator.Materialized, records, bytes int64) planner.Resources {
	prof, centralized := p.Env.Engine(mo.Engine())
	full := planner.Resources{Nodes: p.opts.ClusterNodes, CoresPerN: p.opts.CoresPerNode, MemMBPerN: p.opts.MemMBPerNode}
	if centralized && prof.Centralized {
		full = planner.Resources{Nodes: 1, CoresPerN: p.opts.CoresPerNode, MemMBPerN: p.opts.MemMBPerNode}
	}
	if !p.opts.ElasticProvisioning {
		return full
	}
	if _, ok := p.Profiler.Models(mo.Name); !ok {
		return full
	}
	best, _, err := p.provisioner.Provision(mo.Name, records, bytes, mo.Params(), p.provisionPolicy())
	if err != nil {
		return full
	}
	return planner.Resources{Nodes: best.Res.Nodes, CoresPerN: best.Res.CoresPerN, MemMBPerN: best.Res.MemMBPerN}
}

func (p *Platform) observe(opName string, run *metrics.Run) {
	// Online model refinement: every actual run feeds the models.
	_ = p.Profiler.Observe(opName, run)
	p.mu.Lock()
	obs := p.runObserver
	p.mu.Unlock()
	if obs != nil {
		obs(opName, run)
	}
}

// SetRunObserver registers a callback invoked after every operator run, in
// addition to the built-in model refinement (useful for experiments that
// react to execution progress, e.g. failure injection at a precise point).
func (p *Platform) SetRunObserver(fn func(op string, run *RunMetrics)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.runObserver = fn
}

// UseTrivialReplanner switches fault recovery to full-workflow replanning
// that ignores materialized intermediates — the TrivialReplan baseline of
// the paper's fault-tolerance evaluation.
func (p *Platform) UseTrivialReplanner() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.trivialReplan = true
}

// libraryEstimator layers the paper's user-provided cost functions over the
// trained models: when an operator is unprofiled, constants declared in its
// description (Optimization.execTime / Optimization.cost — the UserFunction
// models of the D3.3 §3.3 description files) serve as estimates.
type libraryEstimator struct {
	prof *profiler.Profiler
	lib  *operator.Library
}

func (e libraryEstimator) Estimates(opName string, feats map[string]float64) planner.Estimates {
	if pe, profiled := e.prof.Estimates(opName, feats); profiled {
		// A profiled operator answers from its models alone: beyond the
		// learned feasibility wall the declared constants must not override
		// the verdict.
		return planner.Estimates{
			ExecTime: pe.ExecTime, Cost: pe.Cost, OutRecords: pe.OutRecords, OutBytes: pe.OutBytes,
			ExecTimeOK: pe.ExecTimeOK, CostOK: pe.ExecTimeOK,
		}
	}
	mo, ok := e.lib.Operator(opName)
	if !ok {
		return planner.Estimates{}
	}
	var est planner.Estimates
	est.ExecTime, est.ExecTimeOK = declaredConstant(mo, "Optimization.execTime")
	est.Cost, est.CostOK = declaredConstant(mo, "Optimization.cost")
	return est
}

// declaredConstant reads a non-negative constant of the operator's
// description.
func declaredConstant(mo *operator.Materialized, path string) (float64, bool) {
	raw, ok := mo.Meta.Get(path)
	if !ok || raw == "" {
		return 0, false
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

type replanAdapter struct{ pl *planner.Planner }

func (r replanAdapter) Replan(g *workflow.Graph, done []planner.MaterializedIntermediate) (*planner.Plan, error) {
	return r.pl.Replan(g, done)
}

type trivialReplanAdapter struct{ pl *planner.Planner }

func (r trivialReplanAdapter) Replan(g *workflow.Graph, _ []planner.MaterializedIntermediate) (*planner.Plan, error) {
	return r.pl.Plan(g)
}

// RegisterOperator adds a materialized operator description (the
// description-file format of the paper, e.g. "Constraints.Engine=Spark\n...")
// to the operator library.
func (p *Platform) RegisterOperator(name, description string) error {
	_, err := p.Library.AddOperatorDescription(name, description)
	return err
}

// RegisterDataset adds a named dataset description to the library.
func (p *Platform) RegisterDataset(name, description string) error {
	_, err := p.Library.AddDatasetDescription(name, description)
	return err
}

// RegisterAbstractOperator declares an abstract operator usable in
// workflow graph files.
func (p *Platform) RegisterAbstractOperator(name, description string) error {
	meta, err := parseMeta(description)
	if err != nil {
		return fmt.Errorf("ires: abstract operator %s: %w", name, err)
	}
	p.abstracts[name] = operator.NewAbstract(name, meta)
	return nil
}

// ProfileOperator runs the offline profiling phase for a registered
// materialized operator and trains its estimation models. It returns the
// number of successful profiling runs.
func (p *Platform) ProfileOperator(name string, space ProfileSpace) (int, error) {
	mo, ok := p.Library.Operator(name)
	if !ok {
		return 0, fmt.Errorf("ires: unknown operator %q", name)
	}
	return p.Profiler.ProfileOffline(name, mo.Engine(), mo.Algorithm(), space)
}

// Plan materializes the optimal execution plan for an abstract workflow
// under the platform policy.
func (p *Platform) Plan(g *Workflow) (*Plan, error) {
	return p.planner.Plan(g)
}

// ParetoPlans returns the Pareto front of (time, cost) materialized plans
// for the workflow — the multi-objective planning extension. The user picks
// one and passes it to Execute.
func (p *Platform) ParetoPlans(g *Workflow) ([]*Plan, error) {
	return p.planner.ParetoPlans(g)
}

// Replan computes a plan reusing already-materialized intermediates.
func (p *Platform) Replan(g *Workflow, done []planner.MaterializedIntermediate) (*Plan, error) {
	return p.planner.Replan(g, done)
}

// Execute enforces a plan over the simulated cluster, with monitoring,
// model refinement and fault-tolerant replanning.
func (p *Platform) Execute(g *Workflow, plan *Plan) (*ExecutionResult, error) {
	party := p.Clock.Join()
	p.Clock.Kick()
	party.Await()
	defer party.Leave()
	return p.newExecutor(scheduler.ExecContext{Party: party}).Execute(g, plan)
}

// Run plans and executes a workflow in one call: it submits the workflow to
// the multi-workflow scheduler and waits for the result. Under the default
// FIFO admission policy this is equivalent to the historical Plan+Execute.
func (p *Platform) Run(g *Workflow) (*Plan, *ExecutionResult, error) {
	return p.Submit(g).Wait()
}

// Submit enqueues a workflow for execution under the platform's admission
// policy and returns its run handle immediately. Nothing executes until the
// scheduler is started (Start), waited on (Run.Wait, Drain) — so a batch of
// submissions is deterministic regardless of goroutine scheduling.
func (p *Platform) Submit(g *Workflow) *Run {
	return p.sched.Submit(g)
}

// SubmitNamed is Submit with an explicit workflow label for run listings.
func (p *Platform) SubmitNamed(name string, g *Workflow) *Run {
	return p.sched.SubmitNamed(name, g)
}

// SubmitWith is Submit with full scheduling metadata: a label, the tenant
// whose budget the run is charged to (CostQuota), and an absolute
// virtual-time deadline (Deadline).
func (p *Platform) SubmitWith(g *Workflow, opts SubmitOptions) *Run {
	return p.sched.SubmitWith(g, opts)
}

// Start kicks the scheduler so admitted runs begin executing without
// blocking the caller (pair with Drain or Run.Wait).
func (p *Platform) Start() {
	p.sched.Start()
}

// Drain blocks until every submitted run reaches a terminal state.
func (p *Platform) Drain() {
	p.sched.Drain()
}

// Runs lists every submitted run in submission order.
func (p *Platform) Runs() []RunSnapshot {
	return p.sched.Runs()
}

// RunByID returns the live handle of a submitted run. Terminal runs are
// pruned from the scheduler's hot state — use RunSnapshotByID for those.
func (p *Platform) RunByID(id string) (*Run, bool) {
	return p.sched.Get(id)
}

// RunSnapshotByID returns the snapshot of any submitted run, live or
// terminal (terminal runs are served from the scheduler's frozen records).
func (p *Platform) RunSnapshotByID(id string) (RunSnapshot, bool) {
	return p.sched.SnapshotOf(id)
}

// CancelRun cancels the run with the given id; it reports whether the id is
// known. Canceling an already-terminal run is a no-op.
func (p *Platform) CancelRun(id string) bool {
	return p.sched.CancelByID(id)
}

// TraceForRun returns the trace events of one submitted run, demuxed from
// the shared log and renumbered so a run's trace is byte-stable regardless
// of what executed alongside it.
func (p *Platform) TraceForRun(id string) []TraceEvent {
	return p.recorder.ForRun(id)
}

// ProvisionFront exposes the NSGA-II Pareto front of resource choices for a
// profiled operator at a given input scale.
func (p *Platform) ProvisionFront(opName string, records, bytes int64, params map[string]float64) ([]ProvisionOption, error) {
	return p.provisioner.Front(opName, records, bytes, params)
}

// SaveModels persists the profiler's model library (training buffers and
// feasibility walls) to a JSON file, so profiling survives across sessions.
func (p *Platform) SaveModels(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := p.Profiler.Export(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadModels restores a model library previously written by SaveModels,
// retraining every imported model.
func (p *Platform) LoadModels(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return p.Profiler.Import(f)
}

// SetEngineAvailable flips an engine service ON/OFF (failure injection and
// maintenance). Planning and replanning honour it from the next build on,
// which reads the engine's availability as part of its memo keys: the nodes
// that match the engine miss in the new state and hit again once it flips
// back.
func (p *Platform) SetEngineAvailable(name string, on bool) {
	p.Env.SetAvailable(name, on)
	p.Monitor.Poll()
}

// AvailableEngines lists the engines currently usable: service observed ON
// and not blacklisted by the circuit breaker.
func (p *Platform) AvailableEngines() []string {
	var out []string
	for _, name := range p.Monitor.AvailableEngines() {
		if p.breaker.Allows(name) {
			out = append(out, name)
		}
	}
	return out
}

// InjectFaults arms a deterministic fault schedule over the platform: timed
// engine outages and node crashes are scheduled on the virtual clock, and
// transient/straggler injection hooks into every operator attempt of the
// executions that start afterwards (an Execute call, a run segment); one
// already in flight keeps the schedule it started with. Calling it again
// replaces the previous schedule (already-armed timed faults stay scheduled).
func (p *Platform) InjectFaults(cfg FaultConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	sched := faults.New(cfg)
	sched.SetTracer(p.tracer)
	if err := sched.Arm(p.Clock, p.Env, p.Cluster); err != nil {
		return err
	}
	p.mu.Lock()
	p.faults = sched
	p.mu.Unlock()
	return nil
}

// FaultStats reports the injection counters of the armed fault schedule
// (zero value when InjectFaults was never called).
func (p *Platform) FaultStats() FaultStats {
	p.mu.Lock()
	sched := p.faults
	p.mu.Unlock()
	if sched == nil {
		return FaultStats{}
	}
	return sched.Stats()
}

// BlacklistedEngines lists the engines currently excluded by the circuit
// breaker (empty unless BreakerThreshold is set and an engine is flapping).
func (p *Platform) BlacklistedEngines() []string {
	return p.breaker.Tripped()
}

// Metrics exposes the platform's metrics registry: the series the built-in
// recorder derives from the event stream, and the recorder, planner, profiler
// and monitor counters it reads at every scrape. Each metric's HELP text says
// what it counts; docs/tracing.md lists them all.
func (p *Platform) Metrics() *MetricsRegistry {
	return p.recorder.Registry()
}

// collectMetrics is the registry's collector of the counters the profiler,
// the execution monitor and the planner own.
func (p *Platform) collectMetrics(put func(name string, v float64, labels ...string)) {
	rs := p.Profiler.RefinementStats()
	put("ires_profiler_observations_total", float64(rs.Observations))
	put("ires_profiler_fits_total", float64(rs.Fits))
	put("ires_profiler_selections_total", float64(rs.Selections))
	put("ires_profiler_fit_errors_total", float64(rs.FitErrors))
	put("ires_profiler_cv_cells_total", float64(rs.CellsTrained), "trained")
	put("ires_profiler_cv_cells_total", float64(rs.CellsSkipped), "skipped")
	for win, n := range rs.Wins {
		put("ires_profiler_selection_wins_total", float64(n), win.Family, win.Target)
	}
	wall, busy := p.Profiler.FitTime()
	put("ires_profiler_fit_wall_seconds_total", wall.Seconds())
	put("ires_profiler_fit_busy_seconds_total", busy.Seconds())
	polls := p.Monitor.PollStats()
	put("ires_monitor_polls_total", float64(polls.Idle), "idle")
	put("ires_monitor_polls_total", float64(polls.Changed), "changed")
	cs := p.planner.CacheStats()
	put("ires_planner_cache_hits_total", float64(cs.Hits))
	put("ires_planner_cache_misses_total", float64(cs.Misses))
	put("ires_planner_epoch", float64(cs.Epoch))
	put("ires_planner_partial_invalidations_total", float64(cs.PartialInvalidations))
	put("ires_planner_evicted_entries_total", float64(cs.EvictedEntries))
}

// TraceEvents returns a snapshot of the recorded structured events, oldest
// first (bounded by the recorder's ring capacity).
func (p *Platform) TraceEvents() []TraceEvent {
	return p.recorder.Events()
}

// TraceSeq returns the sequence number of the most recently recorded event;
// pass it to TraceSince to window a later snapshot.
func (p *Platform) TraceSeq() int64 {
	return p.recorder.Seq()
}

// TraceSince returns the recorded events with sequence numbers strictly
// greater than seq — the per-run timeline when seq was captured via TraceSeq
// just before the run.
func (p *Platform) TraceSince(seq int64) []TraceEvent {
	return p.recorder.Since(seq)
}

// FailNode schedules a node crash at absolute virtual time at: the node
// goes UNHEALTHY and the containers running on it are invalidated, which
// the executor detects at the next monitor poll.
func (p *Platform) FailNode(name string, at time.Duration) error {
	return p.Cluster.FailNode(name, at)
}

// RestoreNode brings a failed node back into the cluster.
func (p *Platform) RestoreNode(name string) error {
	return p.Cluster.RestoreNode(name)
}
