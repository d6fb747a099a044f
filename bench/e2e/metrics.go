package main

import (
	"math"
	"sort"
)

// MetricDef declares one metric: BENCHMARK.json, the report and the tests
// all read these two tables. Bound is the share of the parent's median by
// which an end-to-end metric may get worse before it counts as a regression
// (per-layer metrics explain, they do not gate, so they have none).
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// An op is the workload's unit of work: a workflow run on steady_text,
// tenant_mix and fault_storm, a planning request on plan_wide. Every
// end-to-end metric is defined, and non-zero, on every workload.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},           // NewPlatform + registration + offline profiling of one episode, calibrated seconds (median of five set-ups)
	{"ops_per_s", "1/s", "higher", 0.25},      // episode ops per calibrated second, first submit (or plan call) to last Drain return
	{"late_ops_per_s", "1/s", "higher", 0.25}, // the same over the second half of the episode only: throughput at lifetime depth
	{"allocs_per_op", "count", "lower", 0.08}, // MemStats.Mallocs delta over the timed region / ops
	{"alloc_kb_per_op", "KiB", "lower", 0.12}, // MemStats.TotalAlloc delta over the timed region / ops
	{"live_heap_mb", "MiB", "lower", 0.05},    // HeapAlloc after a forced GC at episode end with the platform still referenced
}

// PerLayer lists the metrics of the traced pass, layer = module name. All
// are emitted for every workload; one that does not apply reads 0.
var PerLayer = []MetricDef{
	{Name: "client.op_ms_p50", Unit: "ms", Better: "lower"},        // median raw wall latency of an op: a run from its SubmitWith call to its done channel closing, a plan request around the call
	{Name: "client.op_ms_p95", Unit: "ms", Better: "lower"},        // the same at the 95th percentile
	{Name: "client.op_ms_p99", Unit: "ms", Better: "lower"},        // the same at the 99th percentile
	{Name: "client.host_slowdown", Unit: "ratio", Better: "lower"}, // raw seconds / calibrated seconds of the traced episode: what the host was doing

	{Name: "planner.plan_calls", Unit: "count", Better: "lower"},            // plan.start/plan.finish pairs seen by the tracer
	{Name: "planner.plan_busy_ms", Unit: "ms", Better: "lower"},             // wall between plan.start and plan.finish as stamped by the tracer
	{Name: "planner.replans", Unit: "count", Better: "lower"},               // replan events
	{Name: "planner.cache_hits", Unit: "count", Better: "higher"},           // PlannerCacheStats().Hits over the episode
	{Name: "planner.cache_misses", Unit: "count", Better: "lower"},          // PlannerCacheStats().Misses over the episode
	{Name: "planner.cache_hit_ratio", Unit: "ratio", Better: "higher"},      // hits / (hits + misses)
	{Name: "planner.partial_invalidations", Unit: "count", Better: "lower"}, // typed invalidation events applied
	{Name: "planner.evicted_entries", Unit: "count", Better: "lower"},       // memo entries evicted by partial invalidation
	{Name: "planner.rows_allocated", Unit: "count", Better: "lower"},        // DP table rows created
	{Name: "planner.cold_ms_p50", Unit: "ms", Better: "lower"},              // plan_wide: median latency of requests after ResetPlannerCache
	{Name: "planner.warm_ms_p50", Unit: "ms", Better: "lower"},              // plan_wide: median latency of warm requests
	{Name: "planner.flap_ms_p50", Unit: "ms", Better: "lower"},              // plan_wide: median latency of requests after an engine flap
	{Name: "planner.pareto_ms_p50", Unit: "ms", Better: "lower"},            // plan_wide: median latency of ParetoPlans requests

	{Name: "profiler.observe_calls", Unit: "count", Better: "lower"},        // run-observer callbacks (one per Profiler.Observe)
	{Name: "profiler.observe_busy_ms", Unit: "ms", Better: "lower"},         // wall from the tracer's stamp of attempt.finish/fail to the run-observer callback
	{Name: "profiler.observe_us_p50", Unit: "us", Better: "lower"},          // median of that interval
	{Name: "profiler.observe_us_p99", Unit: "us", Better: "lower"},          // 99th percentile of that interval
	{Name: "profiler.observe_share", Unit: "ratio", Better: "lower"},        // observe_busy_ms / episode wall
	{Name: "profiler.retrains", Unit: "count", Better: "lower"},             // Profiler.Gen() delta over the episode
	{Name: "profiler.samples_max", Unit: "count", Better: "lower"},          // largest OperatorModels.SampleCount() at episode end
	{Name: "profiler.predcache_hits", Unit: "count", Better: "higher"},      // prediction-cache hits at episode end
	{Name: "profiler.predcache_misses", Unit: "count", Better: "lower"},     // prediction-cache misses at episode end
	{Name: "profiler.predcache_hit_ratio", Unit: "ratio", Better: "higher"}, // hits / (hits + misses)
	{Name: "profiler.offline_ms", Unit: "ms", Better: "lower"},              // sum of ProfileOperator wall in set-up
	{Name: "profiler.estimate_us", Unit: "us", Better: "lower"},             // cell: Profiler.Estimate on the end-of-episode models after ResetPredictionCaches

	{Name: "model.select_ms", Unit: "ms", Better: "lower"},      // cell: SelectBestRelative over the default zoo on a synthetic matrix of samples_max rows
	{Name: "model.knn_predict_us", Unit: "us", Better: "lower"}, // cell: KNN(3) fit + predict per row on the same matrix

	{Name: "scheduler.decide_calls", Unit: "count", Better: "lower"},       // AdmissionPolicy.Decide calls (timing decorator)
	{Name: "scheduler.decide_busy_ms", Unit: "ms", Better: "lower"},        // wall inside Decide
	{Name: "scheduler.actions", Unit: "count", Better: "higher"},           // actions returned by Decide
	{Name: "scheduler.decide_empty_ratio", Unit: "ratio", Better: "lower"}, // Decide calls returning no action / calls
	{Name: "scheduler.submit_busy_ms", Unit: "ms", Better: "lower"},        // wall around workflow build + SubmitWith, estimate dry-plans included
	{Name: "scheduler.submit_self_ms", Unit: "ms", Better: "lower"},        // submit_busy_ms minus the plan and decide spans inside it
	{Name: "scheduler.submit_us_p50", Unit: "us", Better: "lower"},         // median submit span
	{Name: "scheduler.preemptions", Unit: "count", Better: "lower"},        // run.suspend events
	{Name: "scheduler.queue_wait_vsec_mean", Unit: "vs", Better: "lower"},  // mean of the ires_sched_queue_wait_vseconds histogram (virtual seconds, exact)

	{Name: "vtime.handoff_ns", Unit: "ns", Better: "lower"},         // cell: 8 parties on a fresh clock, wall per wake
	{Name: "vtime.vsec_per_wall_s", Unit: "vs/s", Better: "higher"}, // last FinishedSec / episode wall

	{Name: "cluster.lease_grants", Unit: "count", Better: "lower"},      // lease.grant events
	{Name: "cluster.lease_revokes", Unit: "count", Better: "lower"},     // lease.revoke events
	{Name: "cluster.container_allocs", Unit: "count", Better: "lower"},  // container.alloc events
	{Name: "cluster.checkpoint_writes", Unit: "count", Better: "lower"}, // checkpoint.write events
	{Name: "cluster.lease_cycle_ns", Unit: "ns", Better: "lower"},       // cell: Reserve/ReserveSlices, AllocateIn, Release, ReleaseReservation on a fresh 16-node cluster
	{Name: "cluster.reconcile_us", Unit: "us", Better: "lower"},         // cell: Platform.Cluster.Reconcile() at episode end

	{Name: "executor.attempts", Unit: "count", Better: "lower"},            // attempt.start events
	{Name: "executor.attempt_fails", Unit: "count", Better: "lower"},       // attempt.fail events
	{Name: "executor.retries", Unit: "count", Better: "lower"},             // attempt.retry events
	{Name: "executor.speculations", Unit: "count", Better: "lower"},        // attempt.speculate events
	{Name: "executor.yields", Unit: "count", Better: "lower"},              // attempt.yield events
	{Name: "executor.checkpoint_restores", Unit: "count", Better: "lower"}, // checkpoint.restore events
	{Name: "executor.attempts_per_step", Unit: "ratio", Better: "lower"},   // (attempt.finish + attempt.fail) / attempt.finish: wasted work
	{Name: "executor.failed_runs", Unit: "count", Better: "lower"},         // runs not succeeded (plan_wide: plan calls returning an error)

	{Name: "trace.events", Unit: "count", Better: "lower"},        // events handed to the tracer
	{Name: "trace.events_per_op", Unit: "count", Better: "lower"}, // events / ops
	{Name: "trace.emit_ns", Unit: "ns", Better: "lower"},          // cell: replay of the recorded event stream into a fresh trace.NewRecorder(0), per event
	{Name: "trace.dropped", Unit: "count", Better: "lower"},       // TraceSeq() - len(TraceEvents())
	{Name: "trace.exposition_ms", Unit: "ms", Better: "lower"},    // cell: Metrics().WritePrometheus(io.Discard)
	{Name: "trace.for_run_us", Unit: "us", Better: "lower"},       // cell: TraceForRun on up to 100 sampled run ids

	{Name: "operator.register_us", Unit: "us", Better: "lower"}, // mean RegisterOperator wall in set-up
	{Name: "operator.match_us", Unit: "us", Better: "lower"},    // cell: Library.FindMaterialized after ResetMatchIndex
	{Name: "metadata.parse_us", Unit: "us", Better: "lower"},    // cell: metadata.ParseString on the workload's descriptions

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},      // NumGC delta over the timed region
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},       // PauseTotalNs delta
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},    // GC CPU seconds / total CPU seconds (runtime/metrics)
	{Name: "runtime.heap_peak_mb", Unit: "MiB", Better: "lower"},     // largest HeapAlloc sampled at wave boundaries
	{Name: "runtime.goroutines_end", Unit: "count", Better: "lower"}, // NumGoroutine after the episode

	{Name: "residual.busy_ms", Unit: "ms", Better: "lower"},          // episode wall minus plan, observe, decide and submit-self time: executor + vtime + cluster + trace + GC
	{Name: "residual.share", Unit: "ratio", Better: "lower"},         // residual.busy_ms / episode wall
	{Name: "tracing.overhead_ratio", Unit: "ratio", Better: "lower"}, // traced episode wall / untraced episode wall
}

// Sample is the spread of one metric over the episodes of a run.
type Sample struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func newSample(values []float64) Sample {
	q1, med, q3 := quartiles(values)
	return Sample{Median: med, Q1: q1, Q3: q3, Values: values}
}

// quantile returns the q-quantile of values by linear interpolation
// between order statistics; values need not be sorted.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

func quartiles(values []float64) (q1, med, q3 float64) {
	return quantile(values, 0.25), quantile(values, 0.5), quantile(values, 0.75)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
