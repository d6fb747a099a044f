package trace

import (
	"encoding/json"
	"io"
	"sync"
)

// DefaultMaxEvents bounds the Recorder's in-memory log; past it the oldest
// events are dropped (the registry keeps counting regardless).
const DefaultMaxEvents = 1 << 16

// Recorder is a Tracer that appends events to a bounded in-memory log and
// aggregates them into a Registry. It is safe for concurrent use.
//
// The log retains the latest max events. Internally the buffer is allowed to
// grow to twice that before it is compacted in one bulk copy, so a long-lived
// recorder pays amortized O(1) per Emit instead of an O(max) copy per event
// once the window is full; readers always see exactly the retained window.
type Recorder struct {
	mu     sync.Mutex
	seq    int64
	events []Event
	max    int
	reg    *Registry
}

// NewRecorder builds a recorder holding at most max events (DefaultMaxEvents
// when max <= 0).
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = DefaultMaxEvents
	}
	reg := NewRegistry()
	reg.Help("ires_attempts_total", "operator/move execution attempts started, by engine")
	reg.Help("ires_attempt_failures_total", "failed execution attempts, by engine")
	reg.Help("ires_retries_total", "same-engine retries scheduled after transient failures")
	reg.Help("ires_speculative_launches_total", "straggler backup copies launched")
	reg.Help("ires_speculative_wins_total", "backup copies that beat the original attempt")
	reg.Help("ires_breaker_trips_total", "circuit-breaker trips, by engine")
	reg.Help("ires_replans_total", "fault-triggered replanning rounds")
	reg.Help("ires_faults_injected_total", "chaos-layer injections, by kind")
	reg.Help("ires_containers_lost_total", "containers invalidated by node failures")
	reg.Help("ires_containers_live", "currently allocated containers")
	reg.Help("ires_node_crashes_total", "cluster node crashes")
	reg.Help("ires_plans_total", "planner invocations, by kind")
	reg.Help("ires_planner_cache_hits_total", "planner DP memo hits (operator nodes served from cache)")
	reg.Help("ires_planner_cache_misses_total", "planner DP memo misses (operator nodes evaluated cold)")
	reg.Help("ires_planner_epoch", "planner cache epoch (wholesale flushes: untyped changes and the cache-size bound)")
	reg.Help("ires_planner_partial_invalidations_total", "typed invalidation events (engine flap, profiler retrain, library change) applied as scoped partial evictions")
	reg.Help("ires_planner_evicted_entries_total", "planner cache node results evicted by partial invalidation, downstream dependents included")
	reg.Help("ires_profiler_observations_total", "observed runs appended to an operator's training buffer (model refinement)")
	reg.Help("ires_profiler_fits_total", "times an operator's models were brought up to date, at the first read after its buffer changed")
	reg.Help("ires_profiler_selections_total", "cross-validated model-family selections, one per refitted target")
	reg.Help("ires_profiler_fit_errors_total", "model fits that failed and kept the previous models")
	reg.Help("ires_profiler_cv_cells_total", "(family, fold) cells of the selections' cross-validation grids, by outcome: trained, or skipped because the family's partial error already exceeded the incumbent's total")
	reg.Help("ires_profiler_fit_wall_seconds_total", "wall-clock seconds the model fits took (cross-validation cells and whole-buffer trains of every target, one job graph per fit)")
	reg.Help("ires_profiler_fit_busy_seconds_total", "summed wall-clock seconds of the fits' jobs; over ires_profiler_fit_wall_seconds_total x GOMAXPROCS, the share of the workers the fits kept busy")
	reg.Help("ires_profiler_selection_wins_total", "cross-validated selections by the family that won and the learned target it won (cost is derived from execTime, never selected); sums to ires_profiler_selections_total")
	reg.Help("ires_trace_dropped_total", "events aged out of the recorder's bounded window; non-zero means trace reads return a truncated log")
	reg.Help("ires_monitor_polls_total", "execution-monitor polls by outcome: idle (no agent report version, engine generation or health script: nothing re-read), refreshed (something re-read, every status as it was), changed (a node or service status moved; subscribers woken)")
	reg.Help("ires_vtime_seconds", "current virtual time of the simulation")
	reg.Help("ires_runs_submitted_total", "workflow runs submitted to the scheduler")
	reg.Help("ires_runs_admitted_total", "workflow runs admitted (granted a node lease)")
	reg.Help("ires_runs_finished_total", "workflow runs reaching a terminal state, by status")
	reg.Help("ires_runs_suspended_total", "runs preempted (lease revoked at an operator boundary)")
	reg.Help("ires_runs_resumed_total", "preempted runs re-admitted and replanned from their done set")
	reg.Help("ires_runs_rejected_total", "runs rejected outright by the admission policy")
	reg.Help("ires_lease_grants_total", "node leases granted at admission/resume")
	reg.Help("ires_lease_grows_total", "elastic lease grow operations")
	reg.Help("ires_lease_shrinks_total", "elastic lease shrink operations")
	reg.Help("ires_lease_revokes_total", "lease revocations (voluntary release or preemption)")
	reg.Help("ires_attempt_duration_vseconds", "operator attempt durations in virtual seconds, by engine")
	reg.Help("ires_sched_queue_wait_vseconds", "virtual seconds runs spent queued before admission")
	reg.Help("ires_sched_suspension_vseconds", "virtual seconds preempted runs spent suspended before resuming")
	reg.Help("ires_checkpoint_writes_total", "sub-operator checkpoints written at iteration/partition boundaries, by engine")
	reg.Help("ires_checkpoint_restores_total", "attempts seeded from a stored checkpoint instead of unit zero")
	reg.Help("ires_checkpoints_lost_total", "checkpoints whose last replica died with a crashed node")
	reg.Help("ires_checkpoint_write_vseconds_total", "virtual seconds spent writing checkpoints")
	reg.Help("ires_attempt_yields_total", "attempts suspended cooperatively at a checkpoint boundary")
	reg.Help("ires_preempt_latency_vseconds", "virtual seconds from preempt request to lease revocation")
	reg.DeclareHistogram("ires_attempt_duration_vseconds", DefBuckets)
	reg.DeclareHistogram("ires_sched_queue_wait_vseconds", DefBuckets)
	reg.DeclareHistogram("ires_sched_suspension_vseconds", DefBuckets)
	reg.DeclareHistogram("ires_preempt_latency_vseconds", DefBuckets)
	return &Recorder{max: max, reg: reg}
}

// Emit implements Tracer: the event gets the next sequence number, is
// appended to the log and folded into the registry.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	r.events = append(r.events, ev)
	if len(r.events) > 2*r.max {
		r.events = append(r.events[:0:0], r.events[len(r.events)-r.max:]...)
	}
	r.mu.Unlock()
	r.aggregate(ev)
}

// retainedLocked returns the current retention window (the latest max
// events) without copying; the caller holds r.mu.
func (r *Recorder) retainedLocked() []Event {
	if len(r.events) > r.max {
		return r.events[len(r.events)-r.max:]
	}
	return r.events
}

// aggregate maintains the counter/gauge registry from the event stream.
func (r *Recorder) aggregate(ev Event) {
	reg := r.reg
	reg.Inc("ires_trace_events_total", map[string]string{"type": string(ev.Type)}, 1)
	if ev.VTimeSec > reg.Value("ires_vtime_seconds", nil) {
		reg.Set("ires_vtime_seconds", nil, ev.VTimeSec)
	}
	engine := map[string]string{"engine": ev.Engine}
	switch ev.Type {
	case EvAttemptStart:
		reg.Inc("ires_attempts_total", engine, 1)
		if ev.Speculative {
			reg.Inc("ires_speculative_launches_total", nil, 1)
		}
	case EvAttemptFinish:
		reg.Inc("ires_attempt_successes_total", engine, 1)
		reg.Observe("ires_attempt_duration_vseconds", engine, ev.Fields["durSec"])
		if ev.Speculative {
			reg.Inc("ires_speculative_wins_total", nil, 1)
		}
	case EvAttemptFail:
		reg.Inc("ires_attempt_failures_total", engine, 1)
	case EvAttemptRetry:
		reg.Inc("ires_retries_total", nil, 1)
	case EvSpeculate:
		reg.Inc("ires_speculation_deadlines_total", nil, 1)
	case EvContainerAlloc:
		n := ev.Fields["containers"]
		reg.Inc("ires_containers_allocated_total", nil, n)
		reg.Add("ires_containers_live", nil, n)
	case EvContainerRelease:
		n := ev.Fields["containers"]
		reg.Inc("ires_containers_released_total", nil, n)
		reg.Add("ires_containers_live", nil, -n)
	case EvContainerLost:
		n := ev.Fields["containers"]
		reg.Inc("ires_containers_lost_total", nil, n)
		reg.Add("ires_containers_live", nil, -n)
	case EvBreakerTrip:
		reg.Inc("ires_breaker_trips_total", engine, 1)
	case EvBreakerReset:
		reg.Inc("ires_breaker_resets_total", engine, 1)
	case EvReplan:
		reg.Inc("ires_replans_total", nil, 1)
	case EvNodeCrash:
		reg.Inc("ires_node_crashes_total", nil, 1)
	case EvNodeRestore:
		reg.Inc("ires_node_restores_total", nil, 1)
	case EvFaultTransient:
		reg.Inc("ires_faults_injected_total", map[string]string{"kind": "transient"}, 1)
	case EvFaultStraggler:
		reg.Inc("ires_faults_injected_total", map[string]string{"kind": "straggler"}, 1)
	case EvFaultOutage:
		reg.Inc("ires_faults_injected_total", map[string]string{"kind": "outage"}, 1)
	case EvRunSubmit:
		reg.Inc("ires_runs_submitted_total", nil, 1)
	case EvRunAdmit:
		reg.Inc("ires_runs_admitted_total", nil, 1)
		reg.Observe("ires_sched_queue_wait_vseconds", nil, ev.Fields["waitSec"])
	case EvRunSuspend:
		reg.Inc("ires_runs_suspended_total", nil, 1)
		if lat, ok := ev.Fields["latencySec"]; ok {
			reg.Observe("ires_preempt_latency_vseconds", nil, lat)
		}
	case EvCheckpointWrite:
		reg.Inc("ires_checkpoint_writes_total", engine, 1)
		reg.Inc("ires_checkpoint_write_vseconds_total", nil, ev.Fields["writeSec"])
	case EvCheckpointRestore:
		reg.Inc("ires_checkpoint_restores_total", nil, 1)
	case EvCheckpointLost:
		reg.Inc("ires_checkpoints_lost_total", nil, 1)
	case EvAttemptYield:
		reg.Inc("ires_attempt_yields_total", nil, 1)
	case EvRunResume:
		reg.Inc("ires_runs_resumed_total", nil, 1)
		reg.Observe("ires_sched_suspension_vseconds", nil, ev.Fields["suspendedSec"])
	case EvRunReject:
		reg.Inc("ires_runs_rejected_total", nil, 1)
		reg.Inc("ires_runs_finished_total", map[string]string{"status": "rejected"}, 1)
	case EvLeaseGrant:
		reg.Inc("ires_lease_grants_total", nil, 1)
	case EvLeaseGrow:
		reg.Inc("ires_lease_grows_total", nil, 1)
	case EvLeaseShrink:
		reg.Inc("ires_lease_shrinks_total", nil, 1)
	case EvLeaseRevoke:
		reg.Inc("ires_lease_revokes_total", nil, 1)
	case EvRunFinish:
		status := "succeeded"
		if ev.Error != "" {
			status = "failed"
		}
		reg.Inc("ires_runs_finished_total", map[string]string{"status": status}, 1)
	case EvRunCancel:
		reg.Inc("ires_runs_finished_total", map[string]string{"status": "canceled"}, 1)
	case EvPlanStart:
		kind := "plan"
		if ev.Fields["replan"] > 0 {
			kind = "replan"
		} else if ev.Fields["pareto"] > 0 {
			kind = "pareto"
		}
		reg.Inc("ires_plans_total", map[string]string{"kind": kind}, 1)
	}
}

// Registry exposes the aggregated counters and gauges.
func (r *Recorder) Registry() *Registry { return r.reg }

// Seq returns the sequence number of the latest event (0 when empty).
func (r *Recorder) Seq() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Events returns a copy of the retained event log.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.retainedLocked()...)
}

// Since returns the retained events with Seq > seq — the capture primitive
// for per-run timelines.
func (r *Recorder) Since(seq int64) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	retained := r.retainedLocked()
	// Events are seq-ordered; binary search would be overkill at this size.
	for i, ev := range retained {
		if ev.Seq > seq {
			return append([]Event(nil), retained[i:]...)
		}
	}
	return nil
}

// ForRun returns the retained events belonging to one scheduler run,
// renumbered 1..n so a run's log is byte-stable regardless of what other
// runs interleaved with it in the global sequence.
func (r *Recorder) ForRun(runID string) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, ev := range r.retainedLocked() {
		if ev.RunID == runID {
			ev.Seq = int64(len(out) + 1)
			out = append(out, ev)
		}
	}
	return out
}

// Dropped reports how many events aged out of the bounded log.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d := r.seq - int64(r.max); d > 0 {
		return d
	}
	return 0
}

// WriteJSONL writes events as JSON lines (one event per line).
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
