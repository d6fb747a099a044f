// Package executor implements the IReS executor layer (D3.3 §2.3): the
// enforcer walks a materialized plan over the simulated YARN cluster,
// allocating containers per step, charging virtual time, feeding run metrics
// back to the model-refinement path, detecting failures in real time and —
// instead of discarding completed work — replanning only the remaining
// workflow, reusing every materialized intermediate result.
//
// Recovery is layered, cheapest mechanism first:
//
//  1. transient step failures are retried on the same engine with
//     exponential backoff in virtual time (RetryPolicy);
//  2. steps exceeding TimeoutFactor × their predicted duration are treated
//     as stragglers: a speculative copy launches on the next-best
//     engine/resource choice and whichever attempt finishes first wins,
//     the loser's containers being released immediately;
//  3. node failures invalidate the containers running on the node; the
//     executor observes this through the cluster Monitor and fails the
//     affected steps instead of letting them complete impossibly;
//  4. engines failing repeatedly trip a CircuitBreaker and are excluded
//     from replans for a cooldown window;
//  5. only when retries on the same engine are exhausted does the executor
//     fall through to replanning the remaining workflow.
package executor

import (
	"errors"
	"fmt"
	"time"

	"github.com/asap-project/ires/internal/cluster"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/metrics"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/vtime"
	"github.com/asap-project/ires/internal/workflow"
)

// ErrDeadlock indicates no step can start and none is running (unsatisfied
// dependencies or permanently insufficient resources).
var ErrDeadlock = errors.New("executor: no runnable step")

// ErrTooManyReplans indicates the failure/replan loop exceeded maxReplans.
var ErrTooManyReplans = errors.New("executor: too many replans")

// maxReplans bounds the failure/replan loop of one run.
const maxReplans = 5

// ErrContainersLost indicates a step's containers were invalidated by a
// node failure mid-run. It is retryable: the work relaunches elsewhere.
var ErrContainersLost = errors.New("executor: containers lost to node failure")

// ErrCanceled indicates the run was canceled through its run handle. The
// executor drains in-flight attempts (releasing their containers) before
// returning it.
var ErrCanceled = errors.New("executor: run canceled")

// ErrSuspended indicates the run was cooperatively preempted: the executor
// stopped at the next completed-operator boundary, drained every in-flight
// attempt (releasing its containers) and reported the materialized
// intermediates in Result.Intermediates so a later Resume can replan from
// the done set without re-executing completed work.
var ErrSuspended = errors.New("executor: run suspended")

// Replanner produces a new plan for the remaining workflow given the
// intermediates that already exist. The core platform wires this to the
// planner with engine availability checked live, so failed engines are
// excluded automatically.
type Replanner interface {
	Replan(g *workflow.Graph, done []planner.MaterializedIntermediate) (*planner.Plan, error)
}

// Injector is the chaos hook consulted at every operator attempt launch —
// *faults.Schedule implements it. Move steps are exempt (they hold no
// containers and model plain network transfers).
type Injector interface {
	// RunFault decides whether this attempt fails transiently; durSec is
	// the attempt's predicted duration.
	RunFault(engineName, stepName string, attempt int, durSec float64, now time.Duration) error
	// StretchFactor returns the straggler slowdown multiplier (>= 1)
	// applied to the attempt's duration.
	StretchFactor(engineName, stepName string, now time.Duration) float64
}

// RetryPolicy bounds per-step same-engine retries. The zero value means a
// single attempt (no retries), preserving fail-then-replan semantics.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per step per plan
	// (1 attempt = no retry; values <= 0 are treated as 1).
	MaxAttempts int
	// BaseBackoff is the virtual-time delay before the first retry
	// (default 1s when retries are enabled); each later retry waits twice
	// as long as the one before.
	BaseBackoff time.Duration
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the delay before the next attempt after `failed` failures.
func (p RetryPolicy) backoff(failed int) time.Duration {
	d := p.BaseBackoff
	if d <= 0 {
		d = time.Second
	}
	for i := 1; i < failed; i++ {
		d *= 2
	}
	return d
}

// SpeculativeChoice is an alternative materialization for a straggling
// step: the next-best engine/resource option for the same abstract
// operator.
type SpeculativeChoice struct {
	OpName    string
	Engine    string
	Algorithm string
	Res       planner.Resources
	Params    map[string]float64
}

// Executor enforces materialized plans.
type Executor struct {
	Env     *engine.Environment
	Cluster *cluster.Cluster
	Clock   *vtime.Clock
	// Observer receives the monitoring record of every operator run
	// (model refinement); may be nil.
	Observer func(operatorName string, run *metrics.Run)
	// Replanner enables fault-tolerant partial replanning; nil makes
	// failures fatal.
	Replanner Replanner
	// LaunchOverheadSec is the per-operator-step YARN container launch
	// overhead added to each run's duration (the "couple of seconds" the
	// paper attributes to YARN-based execution).
	LaunchOverheadSec float64

	// Retry bounds per-step same-engine retries; the zero value disables
	// them.
	Retry RetryPolicy
	// TimeoutFactor enables straggler detection: a step exceeding
	// TimeoutFactor × its predicted duration gets a speculative copy
	// (requires Speculate). Zero disables timeouts.
	TimeoutFactor float64
	// Speculate picks the next-best engine/resource choice for a
	// straggling step; nil disables speculative execution.
	Speculate func(s *planner.Step) (SpeculativeChoice, bool)
	// Faults is the chaos-injection hook; nil injects nothing.
	Faults Injector
	// Breaker, when non-nil, records per-engine failures/successes so
	// flapping engines are blacklisted from replans for a cooldown.
	Breaker *CircuitBreaker
	// Monitor is the health board: a poll that notices a change interrupts
	// the clock, and the run, woken early, sweeps its attempts for lost
	// containers (detection latency = the monitoring period, as on a real
	// cluster). Required.
	Monitor *cluster.Monitor
	// Tracer receives attempt-lifecycle, container and replan events; nil
	// discards them.
	Tracer trace.Tracer

	// Party is the run's place on the shared clock. The executor parks it
	// until the run's own next stop (an attempt completion, a checkpoint
	// mark, a straggler deadline, a retry or cooldown), and the clock moves
	// only when every party is parked; a changed monitor poll wakes it early.
	// Required.
	Party *vtime.Party
	// Lease, when non-nil, confines container allocation to the reserved
	// nodes of one admission lease; resource requests wider than the lease
	// are clamped to its size.
	Lease *cluster.Reservation
	// Canceled, when non-nil, is polled at decision points; returning true
	// aborts the run with ErrCanceled after draining in-flight work.
	Canceled func() bool
	// Suspend, when non-nil, is the cooperative-preemption hook: polled at
	// the same decision points as Canceled, returning true makes the run
	// stop at the next completed-operator boundary, drain in-flight
	// attempts, and return ErrSuspended with Result.Intermediates set.
	// With checkpointing enabled the drain is boundary-aware: attempts
	// yield at their next checkpoint boundary instead (see CheckpointPolicy).
	Suspend func() bool

	// Checkpoint enables sub-operator checkpointing (see CheckpointPolicy);
	// the zero value disables it.
	Checkpoint CheckpointPolicy
	// CkptScope namespaces checkpoint keys in the shared cluster store —
	// the scheduler sets it to the run id so concurrent runs (and a run's
	// resumed segments, which share the id) see only their own progress.
	CkptScope string

	// changesSeen is the monitor's changed-poll count at the run's last
	// container-loss sweep (or at its start).
	changesSeen int
}

// canceled reports whether the run handle asked this execution to stop.
func (e *Executor) canceled() bool {
	return e.Canceled != nil && e.Canceled()
}

// suspendRequested reports whether the scheduler asked this execution to
// yield its lease at the next operator boundary.
func (e *Executor) suspendRequested() bool {
	return e.Suspend != nil && e.Suspend()
}

// emit stamps the current virtual time on ev and hands it to the tracer.
func (e *Executor) emit(ev trace.Event) {
	if e.Tracer == nil {
		return
	}
	e.Tracer.Emit(ev.At(e.Clock.Now()))
}

// StepExec logs one step execution attempt.
type StepExec struct {
	Name    string
	Engine  string
	Start   time.Duration
	End     time.Duration
	Failed  bool
	Failure string
	// Attempt numbers the execution attempts of a step within one plan
	// (1-based; 0 in logs predating retries is equivalent to 1).
	Attempt int
	// Speculative marks runs launched as straggler backups.
	Speculative bool
}

// Result summarises one workflow execution.
type Result struct {
	// Makespan is the simulated wall-clock duration of the execution.
	Makespan time.Duration
	// TotalCostUnits accumulates the paper's resource-cost metric over all
	// runs.
	TotalCostUnits float64
	// Runs holds the monitoring record of every attempted step.
	Runs []*metrics.Run
	// Replans counts fault-triggered replanning rounds.
	Replans int
	// ReplanTime accumulates the (real) planning time of replans.
	ReplanTime time.Duration
	// Retries counts same-engine step relaunches after transient failures.
	Retries int
	// SpeculativeLaunches counts straggler backup copies started;
	// SpeculativeWins counts those that beat the original attempt.
	SpeculativeLaunches int
	SpeculativeWins     int
	// ContainersLost counts containers invalidated by node failures.
	ContainersLost int
	// FinalRecords/FinalBytes describe the target dataset.
	FinalRecords int64
	FinalBytes   int64
	StepLog      []StepExec

	// Intermediates lists the materialized intermediate datasets at the
	// moment the run stopped. Populated on ErrSuspended so the scheduler
	// can later Resume from the done set (replan-from-done-set) without
	// re-executing any completed operator.
	Intermediates []planner.MaterializedIntermediate

	// Sub-operator checkpointing counters: writes banked, attempts seeded
	// from a stored checkpoint, and total units skipped by those restores.
	CheckpointWrites   int
	CheckpointRestores int
	RestoredUnits      int
}

// Execute enforces the plan for the workflow. On step failure it retries per
// the RetryPolicy, then asks the Replanner for a plan over the remaining
// work and continues, reusing materialized intermediates.
func (e *Executor) Execute(g *workflow.Graph, plan *planner.Plan) (*Result, error) {
	return e.run(g, plan, nil)
}

// Resume continues a previously suspended run: the Replanner produces a plan
// over the remaining workflow given the already-materialized intermediates
// (the done set captured at suspension), so completed operators are seeded at
// zero cost and never re-executed.
func (e *Executor) Resume(g *workflow.Graph, done []planner.MaterializedIntermediate) (*Result, error) {
	if e.Replanner == nil {
		return nil, errors.New("executor: Resume requires a Replanner")
	}
	plan, err := e.Replanner.Replan(g, done)
	if err != nil {
		return nil, fmt.Errorf("executor: resume replan failed: %w", err)
	}
	return e.run(g, plan, done)
}

// run is the shared body of Execute and Resume; done seeds the materialized
// intermediates of a resumed run.
func (e *Executor) run(g *workflow.Graph, plan *planner.Plan, done []planner.MaterializedIntermediate) (*Result, error) {
	if e.Env == nil || e.Cluster == nil || e.Clock == nil || e.Monitor == nil || e.Party == nil {
		return nil, fmt.Errorf("executor: Env, Cluster, Clock, Monitor and Party are required")
	}
	e.changesSeen = e.Monitor.Changes()
	res := &Result{}
	start := e.Clock.Now()

	// Materialized datasets available to steps: workflow sources up front,
	// intermediates as they complete.
	datasets := make(map[string]*dataset)
	for _, d := range g.Datasets() {
		if d.Dataset.IsMaterialized() {
			datasets[d.Name] = &dataset{
				records: d.Dataset.Records(),
				bytes:   d.Dataset.SizeBytes(),
				meta:    d.Dataset.Constraints(),
			}
		}
	}
	// A resumed run starts with its previously materialized intermediates
	// in place, exactly as if the producing steps had just completed here.
	for _, mi := range done {
		datasets[mi.Dataset] = &dataset{records: mi.Records, bytes: mi.Bytes, meta: mi.Meta}
	}

	current := plan
	for {
		if e.canceled() {
			return res, ErrCanceled
		}
		failed, err := e.runPlan(g, current, datasets, res)
		if errors.Is(err, ErrSuspended) {
			res.Intermediates = intermediates(g, datasets)
			res.Makespan = e.Clock.Now() - start
			return res, ErrSuspended
		}
		if err != nil {
			return res, err
		}
		if failed == nil {
			break // plan completed
		}
		if e.Replanner == nil {
			return res, fmt.Errorf("executor: step %s failed and no replanner configured: %s", failed.Name, failed.Failure)
		}
		res.Replans++
		e.emit(trace.Event{
			Type: trace.EvReplan, Step: failed.Name, Engine: failed.Engine,
			Error:  failed.Failure,
			Fields: map[string]float64{"round": float64(res.Replans)},
		})
		if res.Replans > maxReplans {
			return res, fmt.Errorf("%w: %d", ErrTooManyReplans, res.Replans)
		}
		done := intermediates(g, datasets)
		next, err := e.Replanner.Replan(g, done)
		if err != nil && e.Breaker != nil && len(e.Breaker.Tripped()) > 0 {
			// The only remaining implementations may sit on blacklisted
			// engines. Wait out the cooldown (half-open readmits them)
			// and try once more before giving up. A health change that
			// wakes the party early stays unseen until the next sweep.
			for until := e.Clock.Now() + e.Breaker.Cooldown; e.Clock.Now() < until; {
				e.Party.WaitUntil(until)
			}
			next, err = e.Replanner.Replan(g, done)
		}
		if err != nil {
			return res, fmt.Errorf("executor: replan after %s failed: %w", failed.Name, err)
		}
		res.ReplanTime += next.PlanningTime
		current = next
	}

	res.Makespan = e.Clock.Now() - start
	if target, ok := datasets[g.Target]; ok {
		res.FinalRecords = target.records
		res.FinalBytes = target.bytes
	}
	return res, nil
}

type dataset struct {
	records int64
	bytes   int64
	meta    *metadata.Tree
}

// outMetaOf returns the dataset tag a completed step produced. Speculative
// winners keep the planned tag: as with YARN speculation, the backup writes
// to the output location the plan declared, so downstream steps and replans
// see the data where they expect it.
func outMetaOf(s *planner.Step, engineName string) *metadata.Tree {
	if s.OutMeta != nil {
		return s.OutMeta.Clone()
	}
	t := metadata.New()
	if s.Kind == planner.StepOperator {
		t.Set("Engine", engineName)
	}
	return t
}

// attemptRun is one live execution attempt (primary or speculative copy).
type attemptRun struct {
	opName      string
	engineName  string
	start       time.Duration
	end         time.Duration
	ctrs        []*cluster.Container
	run         *metrics.Run
	speculative bool
	attempt     int
	// stretch is the straggler slowdown applied at launch (1 = none).
	stretch float64

	// ckptPlan is the checkpoint schedule, zero when the attempt is not
	// checkpointable; its marks are consumed as they fire, and banked is
	// the unit count of the last write (or of the seeded restore).
	ckptPlan
	banked int
}

// stepRun is the state of one plan step within a runPlan invocation.
type stepRun struct {
	step *planner.Step
	out  *dataset // set when the step completes

	// copies are the live attempts: the primary plus at most one
	// speculative copy; the step is in flight while it has any.
	copies    []*attemptRun
	deadline  time.Duration // straggler deadline of the flight; 0 = none
	specTried bool

	inRecords, inBytes int64
	failed             int           // failed attempts so far
	retryAt            time.Duration // pending retry; 0 = none
}

// planRun carries the mutable state of one runPlan invocation. steps holds
// one record per plan step, indexed by step ID; every scan visits them in
// that order, so no map iteration ever orders an event.
type planRun struct {
	e        *Executor
	steps    []stepRun
	datasets map[string]*dataset
	res      *Result

	completed int
	failure   *StepExec
}

// runPlan executes one plan until completion or first unrecoverable step
// failure. It returns the failed step log entry (nil on success).
func (e *Executor) runPlan(g *workflow.Graph, plan *planner.Plan, datasets map[string]*dataset, res *Result) (*StepExec, error) {
	st := &planRun{e: e, steps: make([]stepRun, len(plan.Steps)), datasets: datasets, res: res}
	for i, s := range plan.Steps {
		if s == nil || s.ID != i {
			return nil, fmt.Errorf("executor: plan step at position %d does not carry ID %d", i, i)
		}
		for _, dep := range s.DependsOn {
			if dep < 0 || dep >= len(plan.Steps) {
				return nil, fmt.Errorf("executor: plan step %d depends on step %d outside the plan", i, dep)
			}
		}
		st.steps[i].step = s
	}

	// stallSince tracks how long the run has been fully blocked (nothing in
	// flight, nothing launchable, no retry pending). Pending clock events — a
	// scheduled node restore, an engine outage, a monitor poll — may unblock
	// it, so we wait on them up to stallLimit of virtual time before
	// declaring deadlock (monitor polls reschedule themselves forever, so
	// waiting must be bounded).
	const stallLimit = time.Hour
	stalled := false
	var stallSince time.Duration

	canceled := false
	suspended := false
	for st.completed < len(st.steps) && st.failure == nil {
		if e.canceled() {
			canceled = true
			break
		}
		if e.suspendRequested() {
			suspended = true
			break
		}
		if err := st.startReady(); err != nil {
			return nil, err
		}
		if st.failure != nil {
			break
		}
		if st.advanceOnce() {
			stalled = false
			continue
		}
		now := e.Clock.Now()
		if !stalled {
			stalled, stallSince = true, now
		}
		if at, ok := e.Clock.NextEventAt(); ok && now-stallSince < stallLimit {
			st.waitUntil(at)
			continue
		}
		return nil, fmt.Errorf("%w: %d/%d steps done", ErrDeadlock, st.completed, len(st.steps))
	}

	// Let in-flight steps finish so their intermediates survive the
	// failure (the paper's executor keeps successfully produced results).
	// The same drain implements the operator-boundary half of cooperative
	// preemption: a suspend request never kills running attempts, it stops
	// the run at the next point where every launched gang has completed.
	// Retries are dropped first, and again each round (a container loss
	// swept here may book one): the drain waits only on attempts in flight,
	// and ends when none is left to stop for.
	for {
		for i := range st.steps {
			st.steps[i].retryAt = 0
		}
		if !st.advanceOnce() {
			break
		}
	}
	if canceled {
		return nil, ErrCanceled
	}
	if suspended {
		return nil, ErrSuspended
	}
	return st.failure, nil
}

// ready reports whether a step can start now: neither done nor in flight,
// past any retry backoff, with every input materialized.
func (st *planRun) ready(r *stepRun, now time.Duration) bool {
	if r.out != nil || len(r.copies) > 0 || now < r.retryAt {
		return false
	}
	for _, dep := range r.step.DependsOn {
		if st.steps[dep].out == nil {
			return false
		}
	}
	for _, src := range r.step.SourceInputs {
		if _, ok := st.datasets[src]; !ok {
			return false
		}
	}
	return true
}

// inputOf sums the records and bytes a ready step consumes.
func (st *planRun) inputOf(s *planner.Step) (records, bytes int64) {
	for _, dep := range s.DependsOn {
		d := st.steps[dep].out
		records += d.records
		bytes += d.bytes
	}
	for _, src := range s.SourceInputs {
		d := st.datasets[src]
		records += d.records
		bytes += d.bytes
	}
	return records, bytes
}

// startReady launches every ready step whose containers fit.
func (st *planRun) startReady() error {
	e := st.e
	for i := range st.steps {
		r := &st.steps[i]
		now := e.Clock.Now()
		if !st.ready(r, now) {
			continue
		}
		s := r.step
		r.inRecords, r.inBytes = st.inputOf(s)
		r.deadline, r.specTried = 0, false

		if s.Kind == planner.StepMove {
			dur := e.Env.TransferSec(r.inBytes)
			run := &metrics.Run{
				Operator: s.Name, Algorithm: "move", Engine: "move",
				ExecTimeSec:  dur,
				InputRecords: r.inRecords, InputBytes: r.inBytes,
				OutputRecords: r.inRecords, OutputBytes: r.inBytes,
			}
			r.copies = append(r.copies, &attemptRun{opName: s.Name, engineName: "move", start: now, end: now + secs(dur), run: run})
			e.emit(trace.Event{
				Type: trace.EvAttemptStart, Step: s.Name, Engine: "move",
				Fields: map[string]float64{"predictedSec": dur, "inBytes": float64(r.inBytes)},
			})
			continue
		}

		planned := SpeculativeChoice{OpName: s.Op.Name, Engine: s.Engine, Algorithm: s.Algorithm, Res: s.Res, Params: s.Params}
		c, launchErr, hardErr := st.launch(r, planned, false)
		if hardErr != nil {
			return hardErr
		}
		if launchErr != nil {
			if errors.Is(launchErr, cluster.ErrInsufficientResources) {
				// Also reached when the lease was revoked mid-launch (the
				// error wraps cluster.ErrReleasedReservation): the policy's
				// suspend signal lands at this same boundary, so parking the
				// step is right in both cases.
				continue // wait for a completion to free resources
			}
			st.failAttempt(r, s.Engine, launchErr, c)
			if st.failure != nil {
				break
			}
			continue
		}
		r.retryAt = 0
		r.copies = append(r.copies, c)
		if e.TimeoutFactor > 0 && e.Speculate != nil {
			predicted := c.run.ExecTimeSec / c.stretch
			r.deadline = c.start + secs(e.TimeoutFactor*(predicted+e.LaunchOverheadSec))
		}
	}
	return nil
}

// launch allocates containers and starts one attempt of an operator step:
// the planned choice, or a speculative backup. launchErr is a recoverable
// per-attempt failure (the returned attemptRun then carries the failed
// monitoring record, if any); hardErr aborts the whole execution.
func (st *planRun) launch(r *stepRun, ch SpeculativeChoice, speculative bool) (*attemptRun, error, error) {
	e := st.e
	s := r.step
	now := e.Clock.Now()
	attempt := r.failed + 1
	eRes := engine.Resources{Nodes: ch.Res.Nodes, CoresPerN: ch.Res.CoresPerN, MemMBPerN: ch.Res.MemMBPerN}
	if e.Lease != nil && eRes.Nodes > e.Lease.Size() {
		// The plan may want more gang members than the admission lease
		// holds; run narrower (and correspondingly slower) rather than
		// poach capacity granted to other runs.
		eRes.Nodes = e.Lease.Size()
	}
	if e.Lease != nil {
		// Every lease caps per-node draw at its slice dimensions (none once
		// revoked); running thinner beats bouncing off AllocateIn's confinement.
		if sc, sm := e.Lease.SliceDims(); sc > 0 {
			if eRes.CoresPerN > sc {
				eRes.CoresPerN = sc
			}
			if eRes.MemMBPerN > sm {
				eRes.MemMBPerN = sm
			}
		}
	}
	ctrs, err := e.Cluster.AllocateIn(e.Lease, eRes.Nodes, eRes.CoresPerN, eRes.MemMBPerN)
	if err != nil {
		if errors.Is(err, cluster.ErrInsufficientResources) {
			return nil, err, nil
		}
		return nil, nil, err
	}
	e.emit(trace.Event{
		Type: trace.EvContainerAlloc, Step: s.Name, Engine: ch.Engine,
		Fields: map[string]float64{"containers": float64(len(ctrs))},
	})
	releaseTraced := func() {
		e.Cluster.ReleaseAll(ctrs)
		e.emit(trace.Event{
			Type: trace.EvContainerRelease, Step: s.Name, Engine: ch.Engine,
			Fields: map[string]float64{"containers": float64(len(ctrs))},
		})
	}
	in := engine.Input{Records: r.inRecords, Bytes: r.inBytes, Params: ch.Params}
	run, err := e.Env.Execute(ch.Engine, ch.Algorithm, in, eRes)
	if run != nil {
		run.Operator = ch.OpName
	}
	c := &attemptRun{opName: ch.OpName, engineName: ch.Engine, start: now, run: run, speculative: speculative, attempt: attempt, stretch: 1}
	if err != nil {
		releaseTraced()
		return c, err, nil
	}
	// Chaos hooks: injected transient failure, then straggler stretch.
	if e.Faults != nil {
		if ferr := e.Faults.RunFault(ch.Engine, s.Name, attempt, run.ExecTimeSec, now); ferr != nil {
			releaseTraced()
			run.Failed = true
			run.FailureReason = ferr.Error()
			return c, ferr, nil
		}
		if f := e.Faults.StretchFactor(ch.Engine, s.Name, now); f > 1 {
			run.ExecTimeSec *= f
			run.CostUnits *= f
			if run.Params == nil {
				run.Params = map[string]float64{}
			}
			// The profiler learns the stretch as a feature of the run.
			run.Params["faultStretch"] = f
			c.stretch = f
		}
	}
	// Checkpoint schedule: seed banked progress from the store, place write
	// marks, fold restore/write overheads into the run's modeled duration
	// (so predictedSec, cost and speculation deadlines all see the real
	// span). Zero when checkpointing is off or the run isn't checkpointable.
	c.ckptPlan = st.planCheckpoints(s, ch.Engine, ch.Algorithm, in, eRes, run)
	c.banked = c.baseUnits
	c.ctrs = ctrs
	c.end = now + secs(run.ExecTimeSec+e.LaunchOverheadSec)
	e.emit(trace.Event{
		Type: trace.EvAttemptStart, Step: s.Name, Operator: ch.OpName, Engine: ch.Engine,
		Attempt: attempt, Speculative: speculative,
		Fields: map[string]float64{"predictedSec": run.ExecTimeSec, "inRecords": float64(r.inRecords)},
	})
	if c.baseUnits > 0 {
		st.res.CheckpointRestores++
		st.res.RestoredUnits += c.baseUnits
		e.emit(trace.Event{
			Type: trace.EvCheckpointRestore, Step: s.Name, Operator: ch.OpName, Engine: ch.Engine,
			Attempt: attempt, Speculative: speculative,
			Fields: map[string]float64{
				"units":      float64(c.baseUnits),
				"totalUnits": float64(c.totalUnits),
				"restoreSec": c.restoreSec,
			},
		})
	}
	return c, nil, nil
}

// retryable classifies attempt errors: deterministic engine verdicts (OOM,
// service OFF, unknown engine/algorithm) go straight to replanning, while
// everything else — injected transients, container losses — may succeed on
// a relaunch.
func retryable(err error) bool {
	switch {
	case errors.Is(err, engine.ErrOutOfMemory),
		errors.Is(err, engine.ErrUnavailable),
		errors.Is(err, engine.ErrUnknownEngine),
		errors.Is(err, engine.ErrUnknownAlgorithm):
		return false
	}
	return true
}

// failAttempt records a failed attempt, schedules a same-engine retry while
// the budget lasts, and otherwise marks the plan failed (triggering
// replanning upstream). engineObserved distinguishes genuine engine errors
// (fed to the Observer for model refinement, matching the historical
// behaviour) from infrastructure faults, which say nothing about the
// engine's capability and must not poison the feasibility models.
func (st *planRun) failAttempt(r *stepRun, engineName string, err error, c *attemptRun) {
	e := st.e
	s := r.step
	now := e.Clock.Now()
	r.failed++
	attempt := r.failed
	if e.Breaker != nil {
		e.Breaker.RecordFailure(engineName)
	}
	start := now
	var failedRun *metrics.Run
	if c != nil {
		start = c.start
		failedRun = c.run
	}
	log := StepExec{
		Name: s.Name, Engine: engineName,
		Start: start, End: now,
		Failed: true, Failure: err.Error(),
		Attempt: attempt,
	}
	st.res.StepLog = append(st.res.StepLog, log)
	e.emit(trace.Event{
		Type: trace.EvAttemptFail, Step: s.Name, Engine: engineName,
		Attempt: attempt, Error: err.Error(),
	})
	if failedRun != nil {
		st.res.Runs = append(st.res.Runs, failedRun)
		// Only genuine engine verdicts refine the models; injected faults
		// and node failures are infrastructure noise.
		if e.Observer != nil && !retryable(err) {
			e.Observer(c.opName, failedRun)
		}
	}
	if retryable(err) && attempt < e.Retry.attempts() {
		r.retryAt = now + e.Retry.backoff(attempt)
		st.res.Retries++
		e.emit(trace.Event{
			Type: trace.EvAttemptRetry, Step: s.Name, Engine: engineName,
			Attempt: attempt,
			Fields:  map[string]float64{"retryAtSec": r.retryAt.Seconds()},
		})
		return
	}
	if st.failure == nil {
		st.failure = &log
	}
}

// Decision-point kinds, ordered by tie-break priority at equal times:
// completions first (they free resources and may clear checkpoints), then
// checkpoint marks, then straggler deadlines, then retries.
const (
	stopCompletion = iota
	stopMark
	stopDeadline
	stopRetry
)

// nextStop picks the next decision point: the earliest attempt completion,
// checkpoint-write mark, armed straggler deadline or pending retry (a
// backoff still running; a launch clears it). ok is false when the run has
// none.
func (st *planRun) nextStop() (at time.Duration, kind int, ok bool) {
	better := func(t time.Duration, k int) bool {
		if !ok {
			return true
		}
		if t != at {
			return t < at
		}
		return k < kind
	}
	now := st.e.Clock.Now()
	for i := range st.steps {
		r := &st.steps[i]
		for _, c := range r.copies {
			if better(c.end, stopCompletion) {
				at, kind, ok = c.end, stopCompletion, true
			}
			if len(c.marks) > 0 && better(c.marks[0].at, stopMark) {
				at, kind, ok = c.marks[0].at, stopMark, true
			}
		}
		if len(r.copies) > 0 && r.deadline > 0 && !r.specTried && st.failure == nil && better(r.deadline, stopDeadline) {
			at, kind, ok = r.deadline, stopDeadline, true
		}
		if r.retryAt > now && better(r.retryAt, stopRetry) {
			at, kind, ok = r.retryAt, stopRetry, true
		}
	}
	return at, kind, ok
}

// waitUntil parks the run until target. A health change that wakes it
// early triggers a container-loss sweep; if the sweep changed a flight it
// returns true at once, so the caller decides again at the current instant,
// and otherwise the run parks again.
func (st *planRun) waitUntil(target time.Duration) bool {
	for {
		st.e.Party.WaitUntil(target)
		if st.sweepLost(false) {
			return true
		}
		if st.e.Clock.Now() >= target {
			return false
		}
	}
}

// advanceOnce advances to the next decision point and handles it: a
// container-loss sweep, a straggler deadline (speculation), a checkpoint mark
// or an attempt completion; a retry is launched by the caller's next
// startReady. It reports false, without waiting, when the run has no stop.
func (st *planRun) advanceOnce() bool {
	target, kind, ok := st.nextStop()
	if !ok {
		return false
	}
	if st.waitUntil(target) {
		return true
	}
	switch kind {
	case stopDeadline:
		st.fireDeadlines(target)
	case stopMark:
		st.fireMarks(target)
	case stopCompletion:
		st.completeDue(target)
	}
	return true
}

// sweepLost scans in-flight attempts for containers invalidated by node
// failures. It runs only when the monitor's changed-poll count moved since
// the last sweep, unless force is set (a dead container caught red-handed at
// completion time; the count is then left for the next sweep). It returns
// whether any flight changed.
func (st *planRun) sweepLost(force bool) bool {
	e := st.e
	if !force {
		n := e.Monitor.Changes()
		if n == e.changesSeen {
			return false
		}
		e.changesSeen = n
	}
	changed := false
	for i := range st.steps {
		r := &st.steps[i]
		alive := r.copies[:0]
		for _, c := range r.copies {
			lost := 0
			for _, ctr := range c.ctrs {
				if ctr.Lost() {
					lost++
				}
			}
			if lost == 0 {
				alive = append(alive, c)
				continue
			}
			changed = true
			st.res.ContainersLost += lost
			// Gang semantics: surviving containers of a dead attempt are
			// released immediately.
			e.Cluster.ReleaseAll(c.ctrs)
			e.emit(trace.Event{
				Type: trace.EvContainerLost, Step: r.step.Name, Engine: c.engineName,
				Attempt: c.attempt, Speculative: c.speculative,
				Fields: map[string]float64{"containers": float64(lost)},
			})
			if survivors := len(c.ctrs) - lost; survivors > 0 {
				e.emit(trace.Event{
					Type: trace.EvContainerRelease, Step: r.step.Name, Engine: c.engineName,
					Fields: map[string]float64{"containers": float64(survivors)},
				})
			}
			if c.speculative {
				st.res.StepLog = append(st.res.StepLog, StepExec{
					Name: r.step.Name, Engine: c.engineName,
					Start: c.start, End: e.Clock.Now(),
					Failed: true, Failure: ErrContainersLost.Error(),
					Attempt: c.attempt, Speculative: true,
				})
				e.emit(trace.Event{
					Type: trace.EvAttemptFail, Step: r.step.Name, Engine: c.engineName,
					Attempt: c.attempt, Speculative: true,
					Error: ErrContainersLost.Error(),
				})
			}
		}
		if len(alive) == len(r.copies) {
			continue
		}
		r.copies = alive
		if len(alive) == 0 {
			st.failAttempt(r, r.step.Engine, ErrContainersLost, nil)
		}
	}
	return changed
}

// fireDeadlines launches speculative copies for flights whose straggler
// deadline has passed.
func (st *planRun) fireDeadlines(now time.Duration) {
	e := st.e
	for i := range st.steps {
		r := &st.steps[i]
		if len(r.copies) == 0 || r.deadline <= 0 || r.specTried || r.deadline > now || st.failure != nil {
			continue
		}
		r.specTried = true
		if e.Speculate == nil {
			continue
		}
		choice, ok := e.Speculate(r.step)
		if !ok || choice.Engine == "" {
			continue
		}
		c, launchErr, hardErr := st.launch(r, choice, true)
		if hardErr != nil || launchErr != nil {
			// A backup that cannot start is simply dropped; the original
			// keeps running. Still count genuine engine failures against
			// the breaker.
			if launchErr != nil && !errors.Is(launchErr, cluster.ErrInsufficientResources) && e.Breaker != nil {
				e.Breaker.RecordFailure(choice.Engine)
			}
			continue
		}
		r.copies = append(r.copies, c)
		st.res.SpeculativeLaunches++
		e.emit(trace.Event{
			Type: trace.EvSpeculate, Step: r.step.Name, Engine: choice.Engine,
			Attempt: c.attempt,
			Fields:  map[string]float64{"deadlineSec": r.deadline.Seconds()},
		})
	}
}

// completeDue completes the earliest finished attempt at or before now (the
// first in step order among equals), verifying its containers are still
// alive.
func (st *planRun) completeDue(now time.Duration) {
	e := st.e
	var r *stepRun
	var w *attemptRun
	for i := range st.steps {
		for _, c := range st.steps[i].copies {
			if c.end <= now && (w == nil || c.end < w.end) {
				r, w = &st.steps[i], c
			}
		}
	}
	if w == nil {
		return
	}
	// Verify the winner survived: a node crash between monitor polls must
	// never produce an impossible completion.
	for _, ctr := range w.ctrs {
		if ctr.Lost() {
			st.sweepLost(true)
			return
		}
	}

	s := r.step
	releaseCopy := func(c *attemptRun) {
		e.Cluster.ReleaseAll(c.ctrs)
		if len(c.ctrs) > 0 {
			e.emit(trace.Event{
				Type: trace.EvContainerRelease, Step: s.Name, Engine: c.engineName,
				Fields: map[string]float64{"containers": float64(len(c.ctrs))},
			})
		}
	}
	releaseCopy(w)
	// The losing copy (if any) is cancelled and its containers released.
	for _, c := range r.copies {
		if c == w {
			continue
		}
		releaseCopy(c)
	}
	r.copies = nil
	if w.speculative {
		st.res.SpeculativeWins++
	}
	st.completed++
	e.emit(trace.Event{
		Type: trace.EvAttemptFinish, Step: s.Name, Operator: w.opName, Engine: w.engineName,
		Attempt: w.attempt, Speculative: w.speculative,
		Fields: map[string]float64{
			"durSec":     (w.end - w.start).Seconds(),
			"outRecords": float64(w.run.OutputRecords),
			"costUnits":  w.run.CostUnits,
		},
	})

	out := &dataset{records: w.run.OutputRecords, bytes: w.run.OutputBytes, meta: outMetaOf(s, w.engineName)}
	r.out = out
	st.res.Runs = append(st.res.Runs, w.run)
	st.res.TotalCostUnits += w.run.CostUnits
	st.res.StepLog = append(st.res.StepLog, StepExec{
		Name: s.Name, Engine: w.engineName,
		Start: w.start, End: w.end,
		Attempt: w.attempt, Speculative: w.speculative,
	})
	if e.Breaker != nil && s.Kind == planner.StepOperator {
		e.Breaker.RecordSuccess(w.engineName)
	}
	if w.key != "" {
		// The operator is done; its checkpoints are garbage.
		e.Cluster.ClearCheckpoint(w.key)
	}
	if s.Kind == planner.StepOperator {
		// The Observer fires for every completed operator step — including
		// during the post-failure drain — so model refinement never skips
		// runs without an output dataset. Attempts seeded from a checkpoint
		// are excluded: their duration covers only the remaining units and
		// would poison the full-operator performance models.
		if e.Observer != nil && w.baseUnits == 0 {
			e.Observer(w.opName, w.run)
		}
		if s.OutDataset != "" {
			st.datasets[s.OutDataset] = out
		}
	}
}

// intermediates lists the currently materialized intermediate datasets
// (excluding the workflow's original sources).
func intermediates(g *workflow.Graph, datasets map[string]*dataset) []planner.MaterializedIntermediate {
	var out []planner.MaterializedIntermediate
	for _, d := range g.Datasets() {
		state, ok := datasets[d.Name]
		if !ok || d.Dataset.IsMaterialized() {
			continue
		}
		out = append(out, planner.MaterializedIntermediate{
			Dataset: d.Name,
			Meta:    state.meta,
			Records: state.records,
			Bytes:   state.bytes,
		})
	}
	return out
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
