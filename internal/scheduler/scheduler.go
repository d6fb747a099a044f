// Package scheduler multiplexes several workflow executions over the shared
// simulated cluster and the single virtual clock — the multi-tenant layer of
// the platform (the paper's IReS instance is a shared service: many users
// submit abstract workflows against one YARN cluster).
//
// The design splits arbitration in two:
//
//   - Scheduling: a pluggable Policy observes the full run state (queued,
//     active, suspended) and returns Actions — admit, resume, resize,
//     preempt, reject. Admitted runs hold an elastic node lease
//     (cluster.Reservation) that the policy can grow, shrink, or revoke;
//     node-granular leases make oversubscription structurally impossible and
//     keep admitted runs from starving each other of containers.
//   - Cooperation: every admitted run executes on its own goroutine but
//     blocks on virtual time through a vtime.Party, so at most one run
//     executes at any instant and the interleaving is a pure function of the
//     virtual-time schedule. Fixed seed in, byte-identical traces out — even
//     under the race detector.
//
// Policy input is served from incrementally maintained indexed state (see
// index.go): the queue is an intrusive list with O(1) membership, waiting
// runs sit in an EDF heap, active/suspended sets are kept in submission
// order, and fair-share accounting lives in a hierarchical vruntime tree.
// The structures are updated as deltas at run lifecycle boundaries, so a
// decision round costs O(runs the policy examines), not O(runs ever
// submitted). Terminal runs are pruned from the hot path entirely: a frozen
// snapshot replaces the run record, keeping Runs() listings and id lookups
// alive without leaking execution state under sustained traffic.
//
// Preemption is cooperative: a Preempt action raises the run's suspend flag;
// the executor stops at the next completed-operator boundary, drains its
// in-flight gangs, and returns the materialized intermediates. The scheduler
// revokes the lease and banks the done set on the run record; the run's
// goroutine returns. A suspended run is that record — its graph plus its done
// set — and a later Resume action starts a fresh goroutine that replans from
// it, so no simulated work is silently lost and zero completed operators
// re-execute.
package scheduler

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asap-project/ires/internal/cluster"
	"github.com/asap-project/ires/internal/executor"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/vtime"
	"github.com/asap-project/ires/internal/workflow"
)

// ErrCanceled indicates the run was canceled before or during execution.
var ErrCanceled = errors.New("scheduler: run canceled")

// ErrRejected indicates the admission policy refused the run outright (e.g.
// its cost estimate can never fit the tenant's budget).
var ErrRejected = errors.New("scheduler: run rejected by admission policy")

// rejection is the error of a rejected run: ErrRejected plus the policy's
// reason, which the run.reject event carries on its own.
type rejection string

func (e rejection) Error() string { return ErrRejected.Error() + ": " + string(e) }
func (e rejection) Unwrap() error { return ErrRejected }

// Status is the lifecycle state of a submitted run.
type Status int

const (
	StatusQueued Status = iota
	StatusRunning
	// StatusSuspended marks a preempted run: its lease is revoked, its
	// goroutine has returned, and the record holds the done set for a later
	// resume.
	StatusSuspended
	// StatusResuming marks a suspended run that has been granted a fresh
	// lease but whose new segment has not been dispatched yet.
	StatusResuming
	StatusSucceeded
	StatusFailed
	StatusCanceled
)

// String returns the lowercase status name.
func (s Status) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusSuspended:
		return "suspended"
	case StatusResuming:
		return "resuming"
	case StatusSucceeded:
		return "succeeded"
	case StatusFailed:
		return "failed"
	case StatusCanceled:
		return "canceled"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Terminal reports whether the status is final.
func (s Status) Terminal() bool { return s >= StatusSucceeded }

// Snapshot is a point-in-time view of a run, safe to serialize.
type Snapshot struct {
	ID       string `json:"id"`
	Workflow string `json:"workflow,omitempty"`
	Status   string `json:"status"`
	// Tenant is the budget account the run is charged to (CostQuota) and the
	// top fair-share group (HierarchicalFairShare); User subdivides it.
	Tenant string `json:"tenant,omitempty"`
	User   string `json:"user,omitempty"`
	// Priority biases hierarchical fair-share charging (higher = cheaper).
	Priority int `json:"priority,omitempty"`
	// LeasedNodes is the current node lease size (0 while queued or
	// suspended). LeasedCores/LeasedMemMB are the lease's total capacity
	// footprint per dimension — slice dimensions times nodes, memory capped
	// at physical node memory.
	LeasedNodes int `json:"leasedNodes,omitempty"`
	LeasedCores int `json:"leasedCores,omitempty"`
	LeasedMemMB int `json:"leasedMemMB,omitempty"`
	// Virtual-time marks, in seconds since simulation start. FinishedSec is
	// meaningful only for terminal runs.
	SubmittedSec float64 `json:"submittedSec"`
	StartedSec   float64 `json:"startedSec,omitempty"`
	FinishedSec  float64 `json:"finishedSec,omitempty"`
	// DeadlineSec is the absolute virtual-time deadline (0 = none).
	DeadlineSec float64 `json:"deadlineSec,omitempty"`
	// MakespanSec is the run's execution duration (terminal runs only).
	MakespanSec float64 `json:"makespanSec,omitempty"`
	// Preemptions counts how many times the run has been suspended;
	// SuspendedSec is the total virtual time spent suspended.
	Preemptions  int     `json:"preemptions,omitempty"`
	SuspendedSec float64 `json:"suspendedSec,omitempty"`
	// PreemptLatencySec is the total virtual time between preempt requests
	// and the suspensions landing (lease revoked) — with checkpointing
	// enabled each contribution is bounded by one checkpoint interval.
	PreemptLatencySec float64 `json:"preemptLatencySec,omitempty"`
	Error             string  `json:"error,omitempty"`
}

// Run is the handle of one submitted workflow.
type Run struct {
	id       string
	workflow string
	tenant   string
	user     string
	priority int
	deadline time.Duration // absolute vtime; 0 = none
	g        *workflow.Graph
	sched    *Scheduler
	// demandCores/demandMemMB are the per-node slice demand (0,0 =
	// whole-node leases); immutable after submission.
	demandCores int
	demandMemMB int

	canceled atomic.Bool
	// suspend is the cooperative-preemption flag: raised by a Preempt
	// action, polled by the executor, cleared when the suspension lands.
	suspend atomic.Bool
	done    chan struct{}

	mu          sync.Mutex
	status      Status
	lease       *cluster.Reservation
	leasedNodes int // current lease size; survives finish (last size), zeroed on suspend
	leasedCores int // lease capacity footprint per dimension; tracks leasedNodes
	leasedMemMB int
	party       *vtime.Party
	plan        *planner.Plan
	segs        []*executor.Result // banked per-segment results, merged into result at the finish
	result      *executor.Result
	err         error
	submittedAt time.Duration
	startedAt   time.Duration
	finishedAt  time.Duration

	estTime float64 // planner estimate, seconds (0 = none)
	estCost float64

	// Suspension bookkeeping (guarded by mu).
	doneSet        []planner.MaterializedIntermediate
	preemptions    int
	suspendedAt    time.Duration
	suspendedTotal time.Duration
	running        bool          // currently charged as executing
	runningSince   time.Duration // start of the current execution stretch
	ranFor         time.Duration // accumulated execution time (suspensions excluded)
	// Preemption latency accounting: preemptPending/preemptAskedAt mark an
	// outstanding preempt request; preemptLatency accumulates request-to-
	// suspension spans across the run's preemption arcs.
	preemptPending bool
	preemptAskedAt time.Duration
	preemptLatency time.Duration

	// Index bookkeeping, guarded by the scheduler's mu (never r.mu): the
	// run's position in each incrementally maintained structure.
	seq     int      // submission sequence
	qnode   *runNode // queue-list element; nil when not queued
	edfPos  int      // EDF heap position; -1 when not waiting
	fairPos int      // fair-tree waiting-heap position; -1 when not waiting

	// Hierarchical fair-share accounting (guarded by the scheduler's mu).
	fairWeight float64 // 2^priority charge divisor
	fairV      float64 // accrued virtual runtime
	fairRate   float64 // current vruntime slope (nodes/fairWeight; 0 unless running)
	fairLast   time.Duration
	fairNodes  int        // nodes currently charged
	fairOwner  *fairGroup // owning user group while registered
}

// ID returns the scheduler-unique run id (also stamped on trace events).
func (r *Run) ID() string { return r.id }

// Wait blocks until the run reaches a terminal state and returns its plan,
// execution result and error. It kicks the cooperative clock, so waiting on
// a freshly submitted batch starts it.
func (r *Run) Wait() (*planner.Plan, *executor.Result, error) {
	r.sched.clock.Kick()
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.plan, r.result, r.err
}

// Status returns a point-in-time snapshot of the run.
func (r *Run) Status() Snapshot {
	now := r.sched.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		ID:           r.id,
		Workflow:     r.workflow,
		Tenant:       r.tenant,
		User:         r.user,
		Priority:     r.priority,
		Status:       r.status.String(),
		SubmittedSec: r.submittedAt.Seconds(),
		DeadlineSec:  r.deadline.Seconds(),
		Preemptions:  r.preemptions,
	}
	snap.LeasedNodes = r.leasedNodes
	snap.LeasedCores = r.leasedCores
	snap.LeasedMemMB = r.leasedMemMB
	if r.status >= StatusRunning {
		snap.StartedSec = r.startedAt.Seconds()
	}
	suspended := r.suspendedTotal
	if r.status == StatusSuspended {
		suspended += now - r.suspendedAt
	}
	snap.SuspendedSec = suspended.Seconds()
	snap.PreemptLatencySec = r.preemptLatency.Seconds()
	if r.status.Terminal() {
		snap.FinishedSec = r.finishedAt.Seconds()
		snap.MakespanSec = (r.finishedAt - r.startedAt).Seconds()
	}
	if r.err != nil {
		snap.Error = r.err.Error()
	}
	return snap
}

// Done exposes the run's completion channel.
func (r *Run) Done() <-chan struct{} { return r.done }

// Cancel requests cancellation. A waiting run — queued or suspended — is
// canceled before Cancel returns, at the caller's virtual time. A running one
// stops at its next decision point (in-flight attempts drain first so no
// containers leak); use Wait to observe its terminal state.
func (r *Run) Cancel() {
	r.sched.cancel(r)
	// A running party notices the flag at its next decision point; kick in
	// case every party is parked and the clock needs a push.
	r.sched.clock.Kick()
}

// ExecContext carries the per-segment execution bindings the scheduler hands
// to NewExecutor: the lease and cooperative party of the current segment plus
// the cancellation and cooperative-suspension probes.
type ExecContext struct {
	RunID string
	Lease *cluster.Reservation
	Party *vtime.Party
	// Canceled aborts the run at the next decision point.
	Canceled func() bool
	// Suspend asks the executor to stop at the next completed-operator
	// boundary and return executor.ErrSuspended with the materialized
	// intermediates.
	Suspend func() bool
}

// Exec runs one planned workflow; *executor.Executor satisfies it.
type Exec interface {
	Execute(g *workflow.Graph, plan *planner.Plan) (*executor.Result, error)
}

// ResumableExec is the optional capability needed for preemption: resuming a
// suspended run replans from the banked done set. *executor.Executor
// satisfies it.
type ResumableExec interface {
	Exec
	Resume(g *workflow.Graph, done []planner.MaterializedIntermediate) (*executor.Result, error)
}

// Config wires a Scheduler.
type Config struct {
	Clock   *vtime.Clock
	Cluster *cluster.Cluster
	// Policy is the scheduling policy (default FIFO).
	Policy Policy
	// Plan produces the materialized plan for an admitted run. It is called
	// inside the run's party, so concurrent planning is serialized and
	// deterministic.
	Plan func(g *workflow.Graph) (*planner.Plan, error)
	// NewExecutor builds the per-segment executor. The scheduler hands it
	// the segment's lease and cooperative party plus the cancellation and
	// suspension probes; the implementation must confine the executor to
	// them. A fresh executor is built for every resume segment.
	NewExecutor func(ctx ExecContext) Exec
	// Estimate, when non-nil, predicts a workflow's execution time (virtual
	// seconds) and modeled cost. It is consulted at submission — and only
	// when the policy implements Estimator and asks for estimates — to fill
	// RunState.EstTimeSec/EstCost for deadline/budget decisions.
	Estimate func(g *workflow.Graph) (timeSec, costUnits float64, err error)
	// Tracer receives run lifecycle events; nil discards them.
	Tracer trace.Tracer
}

// SubmitOptions carries the scheduling metadata of one submission.
type SubmitOptions struct {
	// Name labels the run in status listings (default: the graph target).
	Name string
	// Tenant is the budget account for CostQuota-style policies and the top
	// fair-share group for HierarchicalFairShare.
	Tenant string
	// User subdivides a tenant for hierarchical fair-share accounting.
	User string
	// Priority biases fair-share charging: a priority-p run is billed
	// node-seconds at 1/2^p (clamped to ±8), so higher priorities are
	// scheduled sooner within their group. Ignored by other policies.
	Priority int
	// Deadline is the absolute virtual-time deadline for Deadline-style
	// policies (0 = none).
	Deadline time.Duration
	// DemandCores/DemandMemMB declare a per-node resource-slice demand.
	// When both are positive the run's leases are (cores, memMB) slices
	// instead of whole nodes, so runs with complementary demand shapes can
	// share nodes (the currency of the DRF policy). Demands are clamped to
	// single-node capacity; setting only one dimension disables both.
	DemandCores int
	DemandMemMB int
}

// runRecord is one submission-order ledger entry. While the run is live it
// points at the Run; once terminal, the pointer is dropped and a frozen
// snapshot takes its place — so the scheduler retains O(1) state per
// finished run (id + snapshot) instead of the full graph/plan/result chain,
// and the hot path never iterates terminal runs at all.
type runRecord struct {
	id    string
	run   *Run // nil once terminal
	final Snapshot
}

// Scheduler is the multi-workflow submission queue + scheduling core.
// It is safe for concurrent use.
type Scheduler struct {
	clock      *vtime.Clock
	cluster    *cluster.Cluster
	policy     Policy
	plan       func(g *workflow.Graph) (*planner.Plan, error)
	newExec    func(ctx ExecContext) Exec
	estimate   func(g *workflow.Graph) (float64, float64, error)
	tracer     trace.Tracer
	totalNodes int
	// Cached cluster capacity (per dimension and per node) for DRF share
	// math and demand clamping; the node inventory is fixed at build time.
	totalCores int
	totalMemMB int
	nodeCores  int
	nodeMemMB  int

	mu        sync.Mutex
	nextID    int
	idx       stateIndex
	active    map[string]*Run
	suspended map[string]*Run
	records   []*runRecord          // submission order
	recIdx    map[string]*runRecord // id -> record
}

// New builds a scheduler; Clock, Cluster, Plan and NewExecutor are required.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Clock == nil || cfg.Cluster == nil || cfg.Plan == nil || cfg.NewExecutor == nil {
		return nil, fmt.Errorf("scheduler: Clock, Cluster, Plan and NewExecutor are required")
	}
	policy := cfg.Policy
	if policy == nil {
		policy = FIFO{}
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = trace.Nop()
	}
	nodes := cfg.Cluster.Nodes()
	totalCores, totalMemMB := cfg.Cluster.Capacity()
	nodeCores, nodeMemMB := 0, 0
	if len(nodes) > 0 {
		nodeCores, nodeMemMB = nodes[0].Cores, nodes[0].MemMB
	}
	return &Scheduler{
		clock:      cfg.Clock,
		cluster:    cfg.Cluster,
		policy:     policy,
		plan:       cfg.Plan,
		newExec:    cfg.NewExecutor,
		estimate:   cfg.Estimate,
		tracer:     tracer,
		totalNodes: len(nodes),
		totalCores: totalCores,
		totalMemMB: totalMemMB,
		nodeCores:  nodeCores,
		nodeMemMB:  nodeMemMB,
		idx:        newStateIndex(),
		active:     make(map[string]*Run),
		suspended:  make(map[string]*Run),
		recIdx:     make(map[string]*runRecord),
	}, nil
}

// Submit enqueues a workflow and returns its run handle. Scheduling is
// attempted immediately, but no admitted run executes until the cooperative
// clock is kicked (Run.Wait, Drain or Start) — so a batch of Submit calls is
// deterministic regardless of goroutine scheduling.
func (s *Scheduler) Submit(g *workflow.Graph) *Run {
	return s.SubmitWith(g, SubmitOptions{})
}

// SubmitNamed is Submit with an explicit workflow label for status listings.
func (s *Scheduler) SubmitNamed(name string, g *workflow.Graph) *Run {
	return s.SubmitWith(g, SubmitOptions{Name: name})
}

// SubmitWith is Submit with full scheduling metadata (label, tenant, user,
// priority, deadline).
func (s *Scheduler) SubmitWith(g *workflow.Graph, opts SubmitOptions) *Run {
	name := opts.Name
	if name == "" {
		name = g.Target
	}
	// Estimates are produced before enqueueing (planning may take real
	// time) and only for policies that ask, so estimate-free policies keep
	// their exact event streams.
	var estTime, estCost float64
	if s.estimate != nil {
		if e, ok := s.policy.(Estimator); ok && e.NeedsEstimates() {
			if t, c, err := s.estimate(g); err == nil {
				estTime, estCost = t, c
			}
		}
	}

	// Slice demands are all-or-nothing and clamped to single-node physical
	// capacity, so a demand run can always be granted on a fully free node
	// (the progress safety net depends on that).
	demC, demM := opts.DemandCores, opts.DemandMemMB
	if demC <= 0 || demM <= 0 {
		demC, demM = 0, 0
	} else {
		if demC > s.nodeCores {
			demC = s.nodeCores
		}
		if demM > s.nodeMemMB {
			demM = s.nodeMemMB
		}
	}

	s.mu.Lock()
	s.nextID++
	r := &Run{
		id:          fmt.Sprintf("run-%03d", s.nextID),
		workflow:    name,
		tenant:      opts.Tenant,
		user:        opts.User,
		priority:    opts.Priority,
		deadline:    opts.Deadline,
		demandCores: demC,
		demandMemMB: demM,
		g:           g,
		sched:       s,
		done:        make(chan struct{}),
		status:      StatusQueued,
		submittedAt: s.clock.Now(),
		estTime:     estTime,
		estCost:     estCost,
		seq:         s.nextID,
		edfPos:      -1,
		fairPos:     -1,
		fairWeight:  priorityWeight(opts.Priority),
	}
	rec := &runRecord{id: r.id, run: r}
	s.records = append(s.records, rec)
	s.recIdx[r.id] = rec
	s.idx.enqueue(r, r.submittedAt)
	depth := s.idx.queue.n
	s.mu.Unlock()

	fields := map[string]float64{"queueDepth": float64(depth)}
	if opts.Deadline > 0 {
		fields["deadlineSec"] = opts.Deadline.Seconds()
	}
	if estTime > 0 {
		fields["estTimeSec"] = estTime
	}
	if demC > 0 {
		fields["demandCores"] = float64(demC)
		fields["demandMemMB"] = float64(demM)
	}
	s.tracer.Emit(trace.Event{
		Type: trace.EvRunSubmit, RunID: r.id, Operator: name,
		Fields: fields,
	}.At(r.submittedAt))

	s.schedule()
	return r
}

// Start kicks the cooperative clock so admitted runs begin executing.
func (s *Scheduler) Start() { s.clock.Kick() }

// Drain waits until every submitted run (including ones submitted while
// draining) reaches a terminal state. Suspended runs count as pending: the
// policy (or the progress safety net) resumes them as capacity frees.
func (s *Scheduler) Drain() {
	for {
		s.mu.Lock()
		pending := make([]*Run, 0, s.idx.queue.n+len(s.active)+len(s.suspended))
		s.idx.queue.each(func(r *Run) bool {
			pending = append(pending, r)
			return true
		})
		for _, r := range s.active {
			pending = append(pending, r)
		}
		for _, r := range s.suspended {
			pending = append(pending, r)
		}
		s.mu.Unlock()
		if len(pending) == 0 {
			return
		}
		s.clock.Kick()
		for _, r := range pending {
			<-r.done
		}
	}
}

// Runs returns snapshots of every submitted run in submission order. Live
// runs are snapshotted fresh; terminal runs come from the frozen record.
func (s *Scheduler) Runs() []Snapshot {
	s.mu.Lock()
	out := make([]Snapshot, len(s.records))
	live := make([]*Run, len(s.records))
	for i, rec := range s.records {
		if rec.run != nil {
			live[i] = rec.run
		} else {
			out[i] = rec.final
		}
	}
	s.mu.Unlock()
	for i, r := range live {
		if r != nil {
			out[i] = r.Status()
		}
	}
	return out
}

// Get returns the live run handle with the given id. Terminal runs are
// pruned from the scheduler's hot state; use SnapshotOf for those.
func (s *Scheduler) Get(id string) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.recIdx[id]
	if rec == nil || rec.run == nil {
		return nil, false
	}
	return rec.run, true
}

// SnapshotOf returns the snapshot of any submitted run, live or terminal.
func (s *Scheduler) SnapshotOf(id string) (Snapshot, bool) {
	s.mu.Lock()
	rec := s.recIdx[id]
	var (
		run  *Run
		snap Snapshot
	)
	if rec != nil {
		if rec.run != nil {
			run = rec.run
		} else {
			snap = rec.final
		}
	}
	s.mu.Unlock()
	if rec == nil {
		return Snapshot{}, false
	}
	if run != nil {
		return run.Status(), true
	}
	return snap, true
}

// CancelByID cancels the run with the given id; it reports whether the id is
// known. Canceling an already-terminal run is a no-op.
func (s *Scheduler) CancelByID(id string) bool {
	s.mu.Lock()
	rec := s.recIdx[id]
	var run *Run
	if rec != nil {
		run = rec.run
	}
	s.mu.Unlock()
	if rec == nil {
		return false
	}
	if run != nil {
		run.Cancel()
	}
	return true
}

// QueueDepth reports the number of queued (not yet admitted) runs.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.queue.n
}

// ActiveRuns reports the number of admitted, unfinished runs.
func (s *Scheduler) ActiveRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active)
}

// SuspendedRuns reports the number of preempted runs awaiting resume.
func (s *Scheduler) SuspendedRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.suspended)
}

// runStateLocked builds the policy-visible view of one run; s.mu held.
func (s *Scheduler) runStateLocked(r *Run, now time.Duration) RunState {
	r.mu.Lock()
	defer r.mu.Unlock()
	rs := RunState{
		ID:           r.id,
		Workflow:     r.workflow,
		Tenant:       r.tenant,
		User:         r.user,
		Priority:     r.priority,
		Status:       r.status,
		SubmittedSec: r.submittedAt.Seconds(),
		DeadlineSec:  r.deadline.Seconds(),
		DemandCores:  r.demandCores,
		DemandMemMB:  r.demandMemMB,
		EstTimeSec:   r.estTime,
		EstCost:      r.estCost,
		Preemptions:  r.preemptions,
		Preempting:   r.suspend.Load(),
	}
	if r.status >= StatusRunning {
		rs.StartedSec = r.startedAt.Seconds()
	}
	rs.LeasedNodes = r.leasedNodes
	rs.LeasedCores = r.leasedCores
	rs.LeasedMemMB = r.leasedMemMB
	ran := r.ranFor
	if r.running {
		ran += now - r.runningSince
	}
	rs.RanSec = ran.Seconds()
	return rs
}

// stateViewLocked builds the indexed policy input; s.mu held. Nothing is
// materialized here — the State's accessors walk the live index.
func (s *Scheduler) stateViewLocked(now time.Duration) State {
	return State{
		NowSec:     now.Seconds(),
		TotalNodes: s.totalNodes,
		TotalCores: s.totalCores,
		TotalMemMB: s.totalMemMB,
		FreeNodes:  s.cluster.UnreservedHealthy(),
		s:          s,
		now:        now,
	}
}

// reserveFor draws a lease matching the run's demand shape: per-node
// (cores, memMB) slices for runs submitted with a demand, whole nodes
// otherwise.
func (s *Scheduler) reserveFor(r *Run, nodes int) (*cluster.Reservation, error) {
	if r.demandCores > 0 && r.demandMemMB > 0 {
		return s.cluster.ReserveSlices(nodes, r.demandCores, r.demandMemMB)
	}
	return s.cluster.Reserve(nodes)
}

// leaseFootprint returns the total (cores, memMB) capacity a lease pins:
// slice dimensions times nodes. The memory dimension is capped at physical
// node memory — a whole-node lease's slice reaches the overcommit ceiling,
// and DRF shares are fractions of physical capacity.
func (s *Scheduler) leaseFootprint(lease *cluster.Reservation) (cores, memMB int) {
	n := lease.Size()
	sc, sm := lease.SliceDims()
	if sm > s.nodeMemMB {
		sm = s.nodeMemMB
	}
	return n * sc, n * sm
}

// leaseGrantFields builds the lease-event payload; runs submitted with a
// demand add the per-node dimensions they were granted, while no-demand runs
// keep the seed event schema byte-for-byte.
func leaseGrantFields(r *Run, lease *cluster.Reservation) map[string]float64 {
	f := map[string]float64{"nodes": float64(lease.Size())}
	if r.demandCores > 0 && r.demandMemMB > 0 {
		sc, sm := lease.SliceDims()
		f["coresPerNode"] = float64(sc)
		f["memMBPerNode"] = float64(sm)
	}
	return f
}

// queuedLocked finds a run in the queue by id; s.mu held. O(1) via the
// record index + intrusive queue membership.
func (s *Scheduler) queuedLocked(id string) *Run {
	rec := s.recIdx[id]
	if rec == nil || rec.run == nil || rec.run.qnode == nil {
		return nil
	}
	return rec.run
}

// schedule runs Decide/apply rounds until the policy quiesces (a round
// applies no action). It is called at every scheduling boundary: submission,
// run finish, suspension landing, cancellation.
func (s *Scheduler) schedule() {
	for s.scheduleOnce() {
	}
}

// DecideIndexed runs one policy decision round against the maintained
// indexed state without applying anything, and returns the number of actions
// the policy produced. Bench/diagnostic hook.
func (s *Scheduler) DecideIndexed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	return len(s.policy.Decide(s.stateViewLocked(now)))
}

// grantLocked leases nodes nodes to a waiting run — queued (admission) or
// suspended (resume) — and seats it on the cooperative clock, emitting
// lease.grant then run.admit / run.resume; s.mu held. It reports false —
// nothing changed — when the cluster cannot grant the lease. The caller
// launches the segment's goroutine (runParty) after unlocking: that is how
// every segment of every run begins.
func (s *Scheduler) grantLocked(r *Run, nodes int, now time.Duration) bool {
	if nodes < 1 {
		return false
	}
	lease, err := s.reserveFor(r, nodes)
	if err != nil {
		return false
	}
	_, resumed := s.suspended[r.id]
	if resumed {
		delete(s.suspended, r.id)
		s.idx.unsuspendForGrant(r)
	} else {
		s.idx.dequeueForGrant(r)
	}
	n := lease.Size()
	cores, memMB := s.leaseFootprint(lease)
	ev := trace.Event{Type: trace.EvRunAdmit, RunID: r.id, Operator: r.workflow}
	r.mu.Lock()
	r.lease = lease
	r.leasedNodes = n
	r.leasedCores = cores
	r.leasedMemMB = memMB
	r.party = s.clock.Join()
	r.running = true
	r.runningSince = now
	if resumed {
		r.status = StatusResuming
		slept := now - r.suspendedAt
		r.suspendedTotal += slept
		ev.Type = trace.EvRunResume
		ev.Fields = map[string]float64{"nodes": float64(n), "suspendedSec": slept.Seconds()}
	} else {
		r.status = StatusRunning
		r.startedAt = now
		ev.Fields = map[string]float64{"nodes": float64(n), "waitSec": (now - r.submittedAt).Seconds()}
	}
	r.mu.Unlock()
	s.active[r.id] = r
	s.idx.granted(r, n, now)
	s.tracer.Emit(trace.Event{
		Type: trace.EvLeaseGrant, RunID: r.id,
		Fields: leaseGrantFields(r, lease),
	}.At(now))
	s.tracer.Emit(ev.At(now))
	return true
}

// scheduleOnce performs one Decide/apply round and reports whether any
// action applied.
func (s *Scheduler) scheduleOnce() bool {
	var started []*Run
	progress := false

	s.mu.Lock()
	now := s.clock.Now()
	grant := func(r *Run, nodes int) {
		if r != nil && s.grantLocked(r, nodes, now) {
			started = append(started, r)
			progress = true
		}
	}

	st := s.stateViewLocked(now)
	actions := s.policy.Decide(st)
	for _, a := range actions {
		switch a := a.(type) {
		case Admit:
			grant(s.queuedLocked(a.Run), a.Nodes)

		case Resume:
			grant(s.suspended[a.Run], a.Nodes)

		case Preempt:
			r := s.active[a.Run]
			if r == nil {
				continue
			}
			if r.suspend.Swap(true) {
				continue // already pending
			}
			r.mu.Lock()
			r.preemptPending = true
			r.preemptAskedAt = now
			r.mu.Unlock()
			progress = true

		case Resize:
			r := s.active[a.Run]
			if r == nil || a.Nodes < 1 {
				continue
			}
			r.mu.Lock()
			lease := r.lease
			r.mu.Unlock()
			if lease == nil {
				continue
			}
			cur := lease.Size()
			if a.Nodes == cur {
				continue
			}
			var (
				moved []string
				err   error
			)
			evType := trace.EvLeaseGrow
			if a.Nodes > cur {
				moved, err = s.cluster.GrowReservation(lease, a.Nodes-cur)
			} else {
				evType = trace.EvLeaseShrink
				moved, err = s.cluster.ShrinkReservation(lease, a.Nodes)
			}
			if err != nil || len(moved) == 0 {
				continue
			}
			cores, memMB := s.leaseFootprint(lease)
			r.mu.Lock()
			r.leasedNodes = lease.Size()
			r.leasedCores = cores
			r.leasedMemMB = memMB
			r.mu.Unlock()
			s.idx.resized(r, lease.Size(), now)
			s.tracer.Emit(trace.Event{
				Type: evType, RunID: r.id,
				Fields: map[string]float64{"nodes": float64(len(moved)), "total": float64(lease.Size())},
			}.At(now))
			progress = true

		case Reject:
			if r := s.queuedLocked(a.Run); r != nil {
				s.finishLocked(r, StatusFailed, rejection(a.Reason), now)
				close(r.done)
				progress = true
			}
		}
	}

	// Progress safety net: a policy that yields no applicable action while
	// the cluster sits idle would deadlock Drain. Force the earliest
	// waiting run (suspended preferred over queued at equal submission
	// time: it holds completed work) onto the free pool.
	if !progress && len(s.active) == 0 {
		pick := s.idx.queue.front()
		if len(s.idx.suspendedOrder) > 0 {
			r := s.idx.suspendedOrder[0] // earliest-submitted suspended run
			if pick == nil || r.submittedAt <= pick.submittedAt {
				pick = r
			}
		}
		grant(pick, s.cluster.UnreservedHealthy())
	}
	s.mu.Unlock()

	for _, r := range started {
		go s.runParty(r)
	}
	return progress
}

// finishLocked is the one terminal transition, whatever the run was doing —
// queued (reject, cancel), suspended (cancel) or active (the end of its last
// segment). In one critical section it sets the status, emits run.finish /
// run.cancel / run.reject then lease.revoke, leaves the scheduler's sets and
// the index and freezes the record: no observer — policy, Drain, CheckIndex, a
// status listing — ever sees a run that is partly finished. s.mu held.
//
// The caller closes done. A waiting run's caller closes it in the same
// critical section; a run that finishes its own segment closes it only once
// its party has left the clock (runParty). Whoever done releases — Drain's
// caller submitting its next batch — must not race that departure: a party
// leaving after the next batch has joined would dispatch the batch's first
// run while the rest was still being submitted, at wall-clock-dependent
// virtual times.
func (s *Scheduler) finishLocked(r *Run, status Status, err error, now time.Duration) {
	r.mu.Lock()
	if r.status == StatusQueued {
		r.startedAt = now // never ran: zero makespan
	}
	r.status = status
	r.err = err
	r.result = mergeResults(r.segs)
	r.finishedAt = now
	if r.running {
		r.ranFor += now - r.runningSince
		r.running = false
	}
	makespan := now - r.startedAt
	lease := r.lease
	r.lease = nil
	r.party = nil
	r.mu.Unlock()

	ev := trace.Event{Type: trace.EvRunFinish, RunID: r.id, Operator: r.workflow}
	var rej rejection
	switch {
	case status == StatusCanceled:
		ev.Type = trace.EvRunCancel
	case errors.As(err, &rej):
		ev.Type, ev.Error = trace.EvRunReject, string(rej)
	default:
		ev.Fields = map[string]float64{"makespanSec": makespan.Seconds()}
		if err != nil {
			ev.Error = err.Error()
		}
	}
	s.tracer.Emit(ev.At(now))
	if lease != nil {
		nodes := lease.Size()
		s.cluster.ReleaseReservation(lease)
		s.tracer.Emit(trace.Event{
			Type: trace.EvLeaseRevoke, RunID: r.id,
			Fields: map[string]float64{"nodes": float64(nodes)},
		}.At(now))
	}

	switch {
	case r.qnode != nil:
		s.idx.dequeueTerminal(r)
	case s.active[r.id] == r:
		delete(s.active, r.id)
		s.idx.finishedActive(r, now)
	default:
		delete(s.suspended, r.id)
		s.idx.unsuspendTerminal(r)
	}
	// Freeze the snapshot into the record and drop the hot-path pointer.
	rec := s.recIdx[r.id]
	rec.final = r.Status()
	rec.run = nil
}

// cancel raises the run's cancel flag and, when the run is waiting (queued
// or suspended), finishes it on the spot. The flag goes up under s.mu, so a
// waiting run is never observed canceled: grants need not look at the flag.
// Canceling a suspended run may free a budget or a slot the policy was
// holding for it, so a scheduling round follows.
func (s *Scheduler) cancel(r *Run) {
	s.mu.Lock()
	r.canceled.Store(true)
	_, suspended := s.suspended[r.id]
	if suspended || r.qnode != nil {
		s.finishLocked(r, StatusCanceled, ErrCanceled, s.clock.Now())
		close(r.done)
	}
	s.mu.Unlock()
	if suspended {
		s.schedule()
	}
}

// mergeResults folds the per-segment results of a preempted-and-resumed run
// into one: counters add up, logs concatenate, and the final dataset comes
// from the last segment. Makespan is the summed execution time (suspension
// windows excluded — the wall-clock span lives in the run's Snapshot).
func mergeResults(segs []*executor.Result) *executor.Result {
	if len(segs) == 0 {
		return nil
	}
	if len(segs) == 1 {
		return segs[0]
	}
	out := &executor.Result{}
	for _, r := range segs {
		out.Makespan += r.Makespan
		out.TotalCostUnits += r.TotalCostUnits
		out.Runs = append(out.Runs, r.Runs...)
		out.Replans += r.Replans
		out.ReplanTime += r.ReplanTime
		out.Retries += r.Retries
		out.SpeculativeLaunches += r.SpeculativeLaunches
		out.SpeculativeWins += r.SpeculativeWins
		out.ContainersLost += r.ContainersLost
		out.CheckpointWrites += r.CheckpointWrites
		out.CheckpointRestores += r.CheckpointRestores
		out.RestoredUnits += r.RestoredUnits
		out.StepLog = append(out.StepLog, r.StepLog...)
	}
	last := segs[len(segs)-1]
	out.FinalRecords = last.FinalRecords
	out.FinalBytes = last.FinalBytes
	out.Intermediates = last.Intermediates
	return out
}

// suspendLocked lands a suspension at the end of a segment: the lease is
// revoked and the run moves from the active to the suspended set, where it
// waits as a record — graph, done set, banked results — for a Resume grant.
// A cancel that arrived while the segment was draining finishes the run right
// here. s.mu held; the caller is the run's running party.
func (s *Scheduler) suspendLocked(r *Run, now time.Duration) {
	r.suspend.Store(false)
	r.mu.Lock()
	lease := r.lease
	r.lease = nil
	r.leasedNodes = 0
	r.leasedCores = 0
	r.leasedMemMB = 0
	r.party = nil
	r.status = StatusSuspended
	r.preemptions++
	r.suspendedAt = now
	if r.running {
		r.ranFor += now - r.runningSince
		r.running = false
	}
	latency := time.Duration(-1)
	if r.preemptPending {
		latency = now - r.preemptAskedAt
		r.preemptLatency += latency
		r.preemptPending = false
	}
	r.mu.Unlock()
	nodes := 0
	if lease != nil {
		nodes = lease.Size()
	}
	dropped := s.cluster.RevokeReservation(lease)
	delete(s.active, r.id)
	s.suspended[r.id] = r
	s.idx.suspendLanded(r, now)
	suspendFields := map[string]float64{"nodes": float64(nodes), "droppedContainers": float64(dropped)}
	if latency >= 0 {
		suspendFields["latencySec"] = latency.Seconds()
	}
	s.tracer.Emit(trace.Event{
		Type: trace.EvRunSuspend, RunID: r.id, Operator: r.workflow,
		Fields: suspendFields,
	}.At(now))
	s.tracer.Emit(trace.Event{
		Type: trace.EvLeaseRevoke, RunID: r.id,
		Fields: map[string]float64{"nodes": float64(nodes)},
	}.At(now))
	if r.canceled.Load() {
		s.finishLocked(r, StatusCanceled, ErrCanceled, now)
	}
}

// runSegment executes one segment of a run on its current lease and party:
// the first plans and executes from scratch, a later one resumes via
// replan-from-done-set. A fresh executor is built for every segment.
func (s *Scheduler) runSegment(r *Run) (*executor.Result, error) {
	r.mu.Lock()
	ctx := ExecContext{
		RunID:    r.id,
		Lease:    r.lease,
		Party:    r.party,
		Canceled: r.canceled.Load,
		Suspend:  r.suspend.Load,
	}
	resumed, done := r.preemptions > 0, r.doneSet
	r.mu.Unlock()
	if !resumed {
		plan, err := s.plan(r.g)
		r.mu.Lock()
		r.plan = plan
		r.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return s.newExec(ctx).Execute(r.g, plan)
	}
	rex, ok := s.newExec(ctx).(ResumableExec)
	if !ok {
		return nil, fmt.Errorf("scheduler: executor for %s cannot resume", r.id)
	}
	return rex.Resume(r.g, done)
}

// runParty is the goroutine of one run segment, started by a grant: it awaits
// its dispatch turn, runs the segment confined to the (elastic) lease, banks
// the result, and either lands a suspension — after which the run waits as a
// record, holding no goroutine — or finishes the run. Either way it schedules
// successors before leaving the cooperative clock, so the party count never
// touches zero mid-drain and the clock keeps flowing from run to run.
func (s *Scheduler) runParty(r *Run) {
	r.mu.Lock()
	party := r.party
	r.mu.Unlock()
	party.Await()
	r.mu.Lock()
	r.status = StatusRunning
	r.mu.Unlock()

	var (
		res *executor.Result
		err error
	)
	if r.canceled.Load() {
		err = ErrCanceled // canceled between the grant and the dispatch
	} else if res, err = s.runSegment(r); errors.Is(err, executor.ErrCanceled) {
		err = ErrCanceled
	}

	now := s.clock.Now()
	s.mu.Lock()
	if res != nil {
		r.mu.Lock()
		r.segs = append(r.segs, res)
		r.doneSet = res.Intermediates
		r.mu.Unlock()
	}
	switch {
	case errors.Is(err, executor.ErrSuspended):
		s.suspendLocked(r, now)
	case errors.Is(err, ErrCanceled):
		s.finishLocked(r, StatusCanceled, err, now)
	case err != nil:
		s.finishLocked(r, StatusFailed, err, now)
	default:
		s.finishLocked(r, StatusSucceeded, nil, now)
	}
	finished := s.recIdx[r.id].run == nil // a suspension landing may have finished a canceled run
	s.mu.Unlock()
	s.schedule()
	party.Leave()
	if finished {
		close(r.done)
	}
}
