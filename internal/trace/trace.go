// Package trace is the structured, virtual-time-stamped event subsystem of
// the platform: every layer (planner, executor, circuit breaker, cluster,
// fault injection) emits typed events to a Tracer, and a Recorder aggregates
// them into an in-memory event log plus a counter/gauge registry with a
// Prometheus-style text exposition.
//
// Events are keyed to virtual time only — no wall-clock, no goroutine ids —
// so with a fixed seed the entire trace of a run is deterministic and can be
// asserted byte-for-byte in tests. This is the debugging and benchmarking
// substrate the performance experiments report against.
package trace

import "time"

// EventType names one kind of trace event. The dotted prefix groups events
// by subsystem (plan.*, attempt.*, container.*, breaker.*, node.*, fault.*).
type EventType string

// The full event vocabulary.
const (
	// Planner lifecycle: emitted around every Plan/Replan/ParetoPlans call,
	// with the DP statistics (candidates tried, entries kept, moves
	// considered, pruned front entries) in Fields.
	EvPlanStart  EventType = "plan.start"
	EvPlanFinish EventType = "plan.finish"

	// EvReplan marks a fault-triggered replanning round in the executor.
	EvReplan EventType = "replan"

	// Executor attempt lifecycle. attempt.start fires once containers are
	// allocated and the attempt is running; speculative copies carry
	// Speculative=true. attempt.retry records a scheduled same-engine
	// relaunch after a transient failure.
	EvAttemptStart  EventType = "attempt.start"
	EvAttemptFinish EventType = "attempt.finish"
	EvAttemptFail   EventType = "attempt.fail"
	EvAttemptRetry  EventType = "attempt.retry"
	// EvSpeculate marks a straggler deadline firing a backup copy.
	EvSpeculate EventType = "attempt.speculate"

	// Container accounting (one event per gang, container count in Fields).
	EvContainerAlloc   EventType = "container.alloc"
	EvContainerRelease EventType = "container.release"
	EvContainerLost    EventType = "container.lost"

	// Circuit-breaker transitions.
	EvBreakerTrip  EventType = "breaker.trip"
	EvBreakerReset EventType = "breaker.reset"

	// Cluster node lifecycle.
	EvNodeCrash   EventType = "node.crash"
	EvNodeRestore EventType = "node.restore"

	// Chaos-injection layer. fault.oomkill records a container killed by
	// the cluster's OOM killer when an allocation pushed a node's actual
	// memory usage past its physical capacity under overcommit (containerID,
	// memMB, overMB in Fields; the Node field names the oversubscribed
	// node). The killed container surfaces to its executor as a lost
	// container at the next completion sweep, feeding the ordinary
	// retry/checkpoint-restore recovery stack.
	EvFaultTransient EventType = "fault.transient"
	EvFaultStraggler EventType = "fault.straggler"
	EvFaultOutage    EventType = "fault.outage"
	EvOOMKill        EventType = "fault.oomkill"

	// Multi-workflow scheduler lifecycle: submission into the queue,
	// admission (with the granted node quota and queue wait in Fields),
	// terminal states, and the preemption arc — run.suspend when a policy
	// revokes a running lease at an operator boundary, run.resume when the
	// run is re-admitted and replans from its done set (suspendedSec in
	// Fields), run.reject when a policy refuses a run outright.
	EvRunSubmit  EventType = "run.submit"
	EvRunAdmit   EventType = "run.admit"
	EvRunFinish  EventType = "run.finish"
	EvRunCancel  EventType = "run.cancel"
	EvRunSuspend EventType = "run.suspend"
	EvRunResume  EventType = "run.resume"
	EvRunReject  EventType = "run.reject"

	// Elastic lease lifecycle: grant at admission, grow/shrink while the
	// lease is live (node deltas in Fields), revoke on release. Emitted by
	// the scheduler (which knows the owning run), not the cluster, so the
	// events carry RunIDs and the cluster never calls tracers under its
	// own lock.
	EvLeaseGrant  EventType = "lease.grant"
	EvLeaseGrow   EventType = "lease.grow"
	EvLeaseShrink EventType = "lease.shrink"
	EvLeaseRevoke EventType = "lease.revoke"

	// Sub-operator checkpointing. checkpoint.write fires at an iteration or
	// partition boundary once the modeled checkpoint write completes (units,
	// totalUnits, writeSec in Fields); checkpoint.restore fires when a retry,
	// speculative copy or resumed segment seeds an attempt from a stored
	// checkpoint (units, totalUnits, restoreSec in Fields); checkpoint.lost
	// records a checkpoint whose last replica died with a crashed node (the
	// Step field carries the checkpoint key). attempt.yield marks an attempt
	// suspending cooperatively at a checkpoint boundary instead of running
	// to the operator boundary — the bounded-latency preemption arc.
	EvCheckpointWrite   EventType = "checkpoint.write"
	EvCheckpointRestore EventType = "checkpoint.restore"
	EvCheckpointLost    EventType = "checkpoint.lost"
	EvAttemptYield      EventType = "attempt.yield"

	// Node-agent reconciliation layer. agent.report records a reconcile
	// round observing an agent report with news (seq/incarnation/used in
	// Fields). Death detected by reconciliation — rather than announced by
	// FailNode — emits the ordinary node.crash with detected=1 in Fields.
	// These fire only from explicit Reconcile rounds, so scenarios that
	// never reconcile keep byte-identical traces.
	EvAgentReport EventType = "agent.report"
)

// Event is one structured trace record. Only deterministic, virtual-time
// data goes in an Event: serialising the log of a fixed-seed run twice must
// yield identical bytes (Fields is a map, but encoding/json sorts map keys).
type Event struct {
	// Seq is the 1-based emission index, assigned by the Recorder.
	Seq int64 `json:"seq"`
	// VTimeSec is the virtual time of the event in seconds.
	VTimeSec float64   `json:"vtime"`
	Type     EventType `json:"type"`

	// RunID identifies the scheduler run the event belongs to, so the
	// interleaved log of concurrent workflows can be demuxed per run.
	// Empty for platform-global events (node crashes, fault injections).
	RunID string `json:"run,omitempty"`

	// Step is the plan-step name the event concerns, when any.
	Step string `json:"step,omitempty"`
	// Operator is the materialized operator name (may differ from Step for
	// speculative copies running an alternative implementation).
	Operator string `json:"operator,omitempty"`
	Engine   string `json:"engine,omitempty"`
	Node     string `json:"node,omitempty"`

	// Attempt numbers execution attempts of a step within one plan (1-based).
	Attempt     int  `json:"attempt,omitempty"`
	Speculative bool `json:"speculative,omitempty"`

	// Error carries the failure reason of fail/fault events.
	Error string `json:"error,omitempty"`

	// Fields holds event-specific numeric payload (DP statistics, container
	// counts, durations, stretch factors, ...).
	Fields map[string]float64 `json:"fields,omitempty"`
}

// At stamps a virtual time on the event and returns it (builder helper).
func (ev Event) At(vt time.Duration) Event {
	ev.VTimeSec = vt.Seconds()
	return ev
}

// Tracer receives trace events. Implementations must be safe for concurrent
// use; Emit must not retain ev.Fields (emitters hand ownership over).
type Tracer interface {
	Emit(ev Event)
}

// nop discards everything.
type nop struct{}

func (nop) Emit(Event) {}

// Nop returns the no-op tracer (the default everywhere).
func Nop() Tracer { return nop{} }

// multi fans events out to several tracers.
type multi []Tracer

func (m multi) Emit(ev Event) {
	for _, t := range m {
		t.Emit(ev)
	}
}

// withRun stamps a run id on every event passing through.
type withRun struct {
	t  Tracer
	id string
}

func (w withRun) Emit(ev Event) {
	if ev.RunID == "" {
		ev.RunID = w.id
	}
	w.t.Emit(ev)
}

// WithRun wraps a tracer so every emitted event carries the given run id,
// demuxing the shared trace log when several workflows execute at once.
func WithRun(t Tracer, runID string) Tracer {
	if t == nil {
		return Nop()
	}
	return withRun{t: t, id: runID}
}

// Multi fans out to every non-nil tracer; with none it returns Nop.
func Multi(tracers ...Tracer) Tracer {
	var out multi
	for _, t := range tracers {
		if t != nil {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return Nop()
	}
	if len(out) == 1 {
		return out[0]
	}
	return out
}
