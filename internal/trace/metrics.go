package trace

import "sort"

// Metric kinds, as the exposition's TYPE lines spell them.
const (
	counter   = "counter"
	gauge     = "gauge"
	histogram = "histogram"
)

// metric declares one platform metric. Every series the Registry holds or
// renders belongs to exactly one declaration in metrics, which also gives its
// HELP and TYPE lines. A metric with feeds is derived from the event stream
// by the Recorder; one without is collected: a Collector reads it from the
// component that owns the count each time the registry is read.
type metric struct {
	name   string
	kind   string
	help   string
	labels []string  // label names, sorted: the order the exposition renders
	bounds []float64 // histogram bucket upper bounds; +Inf is implicit
	feeds  []feed
}

// feed folds the events of one type into its metric: the value is added to
// a counter or gauge, or observed into a histogram. With keepMax it raises a
// gauge to the value instead, creating the series once the value is positive.
type feed struct {
	on      EventType                   // "" feeds on every event
	label   func(Event) string          // the label's value; nil when unlabeled
	value   func(Event) (float64, bool) // nil counts 1; false skips the event
	keepMax bool
}

// defBuckets are the histogram bounds (virtual seconds): roughly exponential
// from sub-second operator attempts to hour-long workflows.
var defBuckets = []float64{0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600, 1800, 3600}

var byEngine = []string{"engine"}

func engineOf(ev Event) string { return ev.Engine }
func typeOf(ev Event) string   { return string(ev.Type) }

func vtimeOf(ev Event) (float64, bool)       { return ev.VTimeSec, true }
func ifSpeculative(ev Event) (float64, bool) { return 1, ev.Speculative }

// is labels every event of a feed with v.
func is(v string) func(Event) string { return func(Event) string { return v } }

// field reads an event's payload value (0 when absent).
func field(k string) func(Event) (float64, bool) {
	return func(ev Event) (float64, bool) { return ev.Fields[k], true }
}

// minus reads a payload value negated.
func minus(k string) func(Event) (float64, bool) {
	return func(ev Event) (float64, bool) { return -ev.Fields[k], true }
}

// present reads a payload value and skips the events that lack it.
func present(k string) func(Event) (float64, bool) {
	return func(ev Event) (float64, bool) {
		v, ok := ev.Fields[k]
		return v, ok
	}
}

// runStatus labels run.finish by its outcome.
func runStatus(ev Event) string {
	if ev.Error != "" {
		return "failed"
	}
	return "succeeded"
}

// planKind labels plan.start by the call that planned.
func planKind(ev Event) string {
	switch {
	case ev.Fields["replan"] > 0:
		return "replan"
	case ev.Fields["pareto"] > 0:
		return "pareto"
	}
	return "plan"
}

// metrics declares every platform metric; init sorts it by name, the order
// of the exposition.
var metrics = []metric{
	// Every event.
	{name: "ires_trace_events_total", kind: counter, help: "trace events emitted, by type", labels: []string{"type"},
		feeds: []feed{{label: typeOf}}},
	{name: "ires_vtime_seconds", kind: gauge, help: "current virtual time of the simulation",
		feeds: []feed{{value: vtimeOf, keepMax: true}}},

	// Planner and executor.
	{name: "ires_plans_total", kind: counter, help: "planner invocations, by kind", labels: []string{"kind"},
		feeds: []feed{{on: EvPlanStart, label: planKind}}},
	{name: "ires_replans_total", kind: counter, help: "fault-triggered replanning rounds",
		feeds: []feed{{on: EvReplan}}},
	{name: "ires_attempts_total", kind: counter, help: "operator/move execution attempts started, by engine", labels: byEngine,
		feeds: []feed{{on: EvAttemptStart, label: engineOf}}},
	{name: "ires_attempt_successes_total", kind: counter, help: "execution attempts finished successfully, by engine", labels: byEngine,
		feeds: []feed{{on: EvAttemptFinish, label: engineOf}}},
	{name: "ires_attempt_failures_total", kind: counter, help: "failed execution attempts, by engine", labels: byEngine,
		feeds: []feed{{on: EvAttemptFail, label: engineOf}}},
	{name: "ires_attempt_duration_vseconds", kind: histogram, help: "operator attempt durations in virtual seconds, by engine", labels: byEngine, bounds: defBuckets,
		feeds: []feed{{on: EvAttemptFinish, label: engineOf, value: field("durSec")}}},
	{name: "ires_retries_total", kind: counter, help: "same-engine retries scheduled after transient failures",
		feeds: []feed{{on: EvAttemptRetry}}},
	{name: "ires_speculation_deadlines_total", kind: counter, help: "straggler deadlines that fired a backup copy",
		feeds: []feed{{on: EvSpeculate}}},
	{name: "ires_speculative_launches_total", kind: counter, help: "straggler backup copies launched",
		feeds: []feed{{on: EvAttemptStart, value: ifSpeculative}}},
	{name: "ires_speculative_wins_total", kind: counter, help: "backup copies that beat the original attempt",
		feeds: []feed{{on: EvAttemptFinish, value: ifSpeculative}}},
	{name: "ires_attempt_yields_total", kind: counter, help: "attempts suspended cooperatively at a checkpoint boundary",
		feeds: []feed{{on: EvAttemptYield}}},
	{name: "ires_breaker_trips_total", kind: counter, help: "circuit-breaker trips, by engine", labels: byEngine,
		feeds: []feed{{on: EvBreakerTrip, label: engineOf}}},
	{name: "ires_breaker_resets_total", kind: counter, help: "tripped circuit breakers closed by a successful attempt, by engine", labels: byEngine,
		feeds: []feed{{on: EvBreakerReset, label: engineOf}}},

	// Containers, nodes and injected faults.
	{name: "ires_containers_allocated_total", kind: counter, help: "containers allocated",
		feeds: []feed{{on: EvContainerAlloc, value: field("containers")}}},
	{name: "ires_containers_released_total", kind: counter, help: "containers released",
		feeds: []feed{{on: EvContainerRelease, value: field("containers")}}},
	{name: "ires_containers_lost_total", kind: counter, help: "containers invalidated by node failures",
		feeds: []feed{{on: EvContainerLost, value: field("containers")}}},
	{name: "ires_containers_live", kind: gauge, help: "currently allocated containers", feeds: []feed{
		{on: EvContainerAlloc, value: field("containers")},
		{on: EvContainerRelease, value: minus("containers")},
		{on: EvContainerLost, value: minus("containers")},
	}},
	{name: "ires_node_crashes_total", kind: counter, help: "cluster node crashes",
		feeds: []feed{{on: EvNodeCrash}}},
	{name: "ires_node_restores_total", kind: counter, help: "crashed cluster nodes restored",
		feeds: []feed{{on: EvNodeRestore}}},
	{name: "ires_faults_injected_total", kind: counter, help: "chaos-layer injections, by kind", labels: []string{"kind"}, feeds: []feed{
		{on: EvFaultTransient, label: is("transient")},
		{on: EvFaultStraggler, label: is("straggler")},
		{on: EvFaultOutage, label: is("outage")},
	}},

	// Checkpoints.
	{name: "ires_checkpoint_writes_total", kind: counter, help: "sub-operator checkpoints written at iteration/partition boundaries, by engine", labels: byEngine,
		feeds: []feed{{on: EvCheckpointWrite, label: engineOf}}},
	{name: "ires_checkpoint_write_vseconds_total", kind: counter, help: "virtual seconds spent writing checkpoints",
		feeds: []feed{{on: EvCheckpointWrite, value: field("writeSec")}}},
	{name: "ires_checkpoint_restores_total", kind: counter, help: "attempts seeded from a stored checkpoint instead of unit zero",
		feeds: []feed{{on: EvCheckpointRestore}}},
	{name: "ires_checkpoints_lost_total", kind: counter, help: "checkpoints whose last replica died with a crashed node",
		feeds: []feed{{on: EvCheckpointLost}}},

	// Scheduler.
	{name: "ires_runs_submitted_total", kind: counter, help: "workflow runs submitted to the scheduler",
		feeds: []feed{{on: EvRunSubmit}}},
	{name: "ires_runs_admitted_total", kind: counter, help: "workflow runs admitted (granted a node lease)",
		feeds: []feed{{on: EvRunAdmit}}},
	{name: "ires_runs_suspended_total", kind: counter, help: "runs preempted (lease revoked at an operator boundary)",
		feeds: []feed{{on: EvRunSuspend}}},
	{name: "ires_runs_resumed_total", kind: counter, help: "preempted runs re-admitted and replanned from their done set",
		feeds: []feed{{on: EvRunResume}}},
	{name: "ires_runs_finished_total", kind: counter, help: "workflow runs reaching a terminal state, by status", labels: []string{"status"}, feeds: []feed{
		{on: EvRunFinish, label: runStatus},
		{on: EvRunCancel, label: is("canceled")},
	}},
	{name: "ires_sched_queue_wait_vseconds", kind: histogram, help: "virtual seconds runs spent queued before admission", bounds: defBuckets,
		feeds: []feed{{on: EvRunAdmit, value: field("waitSec")}}},
	{name: "ires_sched_suspension_vseconds", kind: histogram, help: "virtual seconds preempted runs spent suspended before resuming", bounds: defBuckets,
		feeds: []feed{{on: EvRunResume, value: field("suspendedSec")}}},
	{name: "ires_preempt_latency_vseconds", kind: histogram, help: "virtual seconds from preempt request to lease revocation", bounds: defBuckets,
		feeds: []feed{{on: EvRunSuspend, value: present("latencySec")}}},
	{name: "ires_lease_grants_total", kind: counter, help: "node leases granted at admission/resume",
		feeds: []feed{{on: EvLeaseGrant}}},
	{name: "ires_lease_revokes_total", kind: counter, help: "lease revocations (voluntary release or preemption)",
		feeds: []feed{{on: EvLeaseRevoke}}},

	// Collected from the components that own the counts.
	{name: "ires_trace_dropped_total", kind: counter, help: "events aged out of the recorder's bounded window; non-zero means trace reads return a truncated log"},
	{name: "ires_planner_cache_hits_total", kind: counter, help: "planner DP memo hits (operator nodes served from cache)"},
	{name: "ires_planner_cache_misses_total", kind: counter, help: "planner DP memo misses (operator nodes evaluated cold)"},
	{name: "ires_planner_epoch", kind: gauge, help: "planner cache epoch (wholesale flushes: infrastructure changes and the cache-size bound)"},
	{name: "ires_planner_partial_invalidations_total", kind: counter, help: "profiler retrains applied as scoped partial evictions; library changes and engine flaps are memo keys and evict nothing"},
	{name: "ires_planner_evicted_entries_total", kind: counter, help: "planner cache node results evicted by partial invalidation: those that estimated a retrained operator"},
	{name: "ires_profiler_observations_total", kind: counter, help: "observed runs appended to an operator's training buffer (model refinement)"},
	{name: "ires_profiler_fits_total", kind: counter, help: "times an operator's models were brought up to date, at the first read after its buffer changed"},
	{name: "ires_profiler_selections_total", kind: counter, help: "cross-validated model-family selections, one per refitted target"},
	{name: "ires_profiler_fit_errors_total", kind: counter, help: "model fits that failed and kept the previous models"},
	{name: "ires_profiler_cv_cells_total", kind: counter, help: "(family, fold) cells of the selections' cross-validation grids, by outcome: trained, or skipped because the family's partial error already exceeded the incumbent's total", labels: []string{"outcome"}},
	{name: "ires_profiler_fit_wall_seconds_total", kind: counter, help: "wall-clock seconds the model fits took (cross-validation cells and whole-buffer trains of every target), one interval per batch: a Prefit of several operators adds its wall time once"},
	{name: "ires_profiler_fit_busy_seconds_total", kind: counter, help: "summed wall-clock seconds of the fits' jobs; over ires_profiler_fit_wall_seconds_total x GOMAXPROCS, the share of the workers the fits kept busy"},
	{name: "ires_profiler_selection_wins_total", kind: counter, help: "cross-validated selections by the family that won and the learned target it won (cost is derived from execTime, never selected); sums to ires_profiler_selections_total", labels: []string{"family", "target"}},
	{name: "ires_monitor_polls_total", kind: counter, help: "execution-monitor polls by outcome: idle (every node health flag and engine status as the board shows it), changed (a node or service status moved; every run parked on the clock woken)", labels: []string{"outcome"}},
}

// route binds a feed to its metric's index in metrics.
type route struct {
	m int
	f *feed
}

// metricIndex finds a declaration by name; everyEvent and routes bind the
// feeds to the events that drive them.
var (
	metricIndex = make(map[string]int, len(metrics))
	everyEvent  []route
	routes      = make(map[EventType][]route)
)

func init() {
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })
	for i := range metrics {
		metricIndex[metrics[i].name] = i
		for j := range metrics[i].feeds {
			rt := route{m: i, f: &metrics[i].feeds[j]}
			if rt.f.on == "" {
				everyEvent = append(everyEvent, rt)
			} else {
				routes[rt.f.on] = append(routes[rt.f.on], rt)
			}
		}
	}
}
