package main

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/asap-project/ires/internal/cluster"
	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/model"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/profiler"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/vtime"
)

// The traced pass: one episode with the hooks of spans.go installed, the
// per-layer metrics read off its spans and the platform's own counters, and
// then the layer cells — small direct measurements of one layer each, run on
// the end-of-episode platform — which estimate the parts of the residual
// that cannot be separated from outside.

// tracedPass runs one traced episode of spec and returns every per-layer
// metric. ref is an untraced episode of the same spec: its wall is the base
// of tracing.overhead_ratio and its digest must equal the traced one. Spans
// go to <traceDir>/trace-<workload>.jsonl when traceDir is not empty.
func tracedPass(spec *Spec, ref *Episode, traceDir string) (map[string]float64, *Episode, *Collector, error) {
	col := newCollector()
	ep, err := runEpisode(spec, col)
	if err != nil {
		return nil, nil, nil, err
	}
	if ep.VDigest != ref.VDigest {
		ep.failf("traced vdigest %s differs from untraced %s: host time leaked into virtual time", ep.VDigest, ref.VDigest)
	}
	m := layerMetrics(spec, ep, col)
	m["tracing.overhead_ratio"] = ratio(ep.CalSec(), ref.CalSec())
	runCells(spec, ep, m)
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, nil, nil, err
		}
		if err := col.WriteJSONL(filepath.Join(traceDir, "trace-"+spec.Workload+".jsonl")); err != nil {
			return nil, nil, nil, err
		}
	}
	return m, ep, col, nil
}

// layerMetrics derives the per-layer metrics that come from spans, event
// counts and the platform's counters (ep.Counters: read at the end of the
// timed region, before the output checks plan again).
func layerMetrics(spec *Spec, ep *Episode, col *Collector) map[string]float64 {
	p := ep.Setup.P
	m := make(map[string]float64, len(PerLayer))
	stats := col.Stats()
	get := func(name string) *SpanStats {
		if st := stats[name]; st != nil {
			return st
		}
		return &SpanStats{}
	}
	ev := func(t trace.EventType) float64 { return float64(col.Events[t]) }

	m["client.op_ms_p50"] = quantile(ep.LatMs, 0.5)
	m["client.op_ms_p95"] = quantile(ep.LatMs, 0.95)
	m["client.op_ms_p99"] = quantile(ep.LatMs, 0.99)
	m["client.host_slowdown"] = ratio(ep.WallSec(), ep.CalSec())

	// Shares are of the episode span with the speed probes taken out.
	episodeMs := get(SpanEpisode).BusyMs - get(SpanProbe).BusyMs

	plan := get(SpanPlan)
	m["planner.plan_calls"] = float64(plan.Count)
	m["planner.plan_busy_ms"] = plan.BusyMs
	m["planner.replans"] = ev(trace.EvReplan)
	cs := ep.Counters.Planner
	m["planner.cache_hits"] = float64(cs.Hits)
	m["planner.cache_misses"] = float64(cs.Misses)
	m["planner.cache_hit_ratio"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
	m["planner.partial_invalidations"] = float64(cs.PartialInvalidations)
	m["planner.evicted_entries"] = float64(cs.EvictedEntries)
	m["planner.rows_allocated"] = float64(cs.RowsAllocated)
	byKind := map[string][]float64{}
	for i, k := range ep.Kinds {
		byKind[k] = append(byKind[k], ep.LatMs[i])
	}
	for _, k := range []string{PlanCold, PlanWarm, PlanFlap, PlanPareto} {
		m["planner."+k+"_ms_p50"] = median(byKind[k])
	}

	obs := get(SpanObserve)
	m["profiler.observe_calls"] = float64(obs.Count)
	m["profiler.observe_busy_ms"] = obs.BusyMs
	m["profiler.observe_us_p50"] = median(obs.DurUs)
	m["profiler.observe_us_p99"] = quantile(obs.DurUs, 0.99)
	m["profiler.observe_share"] = ratio(obs.BusyMs, episodeMs)
	m["profiler.retrains"] = float64(ep.Counters.ProfilerGen - ep.Setup.ProfilerGen)
	for _, name := range p.Profiler.Operators() {
		if om, ok := p.Profiler.Models(name); ok {
			if n := float64(om.SampleCount()); n > m["profiler.samples_max"] {
				m["profiler.samples_max"] = n
			}
		}
	}
	hits, misses := ep.Counters.PredHits, ep.Counters.PredMisses
	m["profiler.predcache_hits"] = float64(hits)
	m["profiler.predcache_misses"] = float64(misses)
	m["profiler.predcache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["profiler.offline_ms"] = ep.Setup.OfflineMs

	dec := get(SpanDecide)
	m["scheduler.decide_calls"] = float64(col.DecideCalls)
	m["scheduler.decide_busy_ms"] = dec.BusyMs
	m["scheduler.actions"] = float64(col.Actions)
	m["scheduler.decide_empty_ratio"] = ratio(float64(col.DecideEmpty), float64(col.DecideCalls))
	sub := get(SpanSubmit)
	m["scheduler.submit_busy_ms"] = sub.BusyMs
	m["scheduler.submit_self_ms"] = sub.SelfMs
	m["scheduler.submit_us_p50"] = median(sub.DurUs)
	m["scheduler.preemptions"] = ev(trace.EvRunSuspend)
	qn, qsum := p.Metrics().HistogramTotals("ires_sched_queue_wait_vseconds")
	m["scheduler.queue_wait_vsec_mean"] = ratio(qsum, qn)

	lastVSec := 0.0
	for _, r := range p.Runs() {
		if r.FinishedSec > lastVSec {
			lastVSec = r.FinishedSec
		}
	}
	m["vtime.vsec_per_wall_s"] = ratio(lastVSec, ep.WallSec())

	m["cluster.lease_grants"] = ev(trace.EvLeaseGrant)
	m["cluster.lease_revokes"] = ev(trace.EvLeaseRevoke)
	m["cluster.container_allocs"] = ev(trace.EvContainerAlloc)
	m["cluster.checkpoint_writes"] = ev(trace.EvCheckpointWrite)

	m["executor.attempts"] = ev(trace.EvAttemptStart)
	m["executor.attempt_fails"] = ev(trace.EvAttemptFail)
	m["executor.retries"] = ev(trace.EvAttemptRetry)
	m["executor.speculations"] = ev(trace.EvSpeculate)
	m["executor.yields"] = ev(trace.EvAttemptYield)
	m["executor.checkpoint_restores"] = ev(trace.EvCheckpointRestore)
	// An attempt that fails at launch never emits attempt.start, so wasted
	// work is counted from the terminal events.
	m["executor.attempts_per_step"] = ratio(ev(trace.EvAttemptFinish)+ev(trace.EvAttemptFail), ev(trace.EvAttemptFinish))
	m["executor.failed_runs"] = float64(ep.Failed)

	events := 0
	for _, n := range col.Events {
		events += n
	}
	m["trace.events"] = float64(events)
	m["trace.events_per_op"] = ratio(float64(events), float64(ep.Ops))
	m["trace.dropped"] = float64(p.TraceSeq()) - float64(len(p.TraceEvents()))

	m["operator.register_us"] = ep.Setup.RegisterUs

	m["runtime.gc_cycles"] = float64(ep.Runtime.GCCycles)
	m["runtime.gc_pause_ms"] = ep.Runtime.GCPauseMs
	m["runtime.gc_cpu_frac"] = ep.Runtime.GCCPUFrac
	m["runtime.heap_peak_mb"] = ep.Runtime.HeapPeakMB
	m["runtime.goroutines_end"] = float64(ep.Runtime.Goroutines)

	// Everything no hook can see — the self time of the drain, wave,
	// request and episode spans — so that the named spans plus the residual
	// sum to the episode span less its probes.
	residual := episodeMs - plan.BusyMs - obs.BusyMs - dec.BusyMs - sub.SelfMs
	m["residual.busy_ms"] = residual
	m["residual.share"] = ratio(residual, episodeMs)
	return m
}

// perOp runs fn n times and returns the mean wall per call.
func perOp(n int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(n)
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// runCells measures one layer at a time on the end-of-episode platform.
// They run after every counter has been read, because some of them reset
// caches.
func runCells(spec *Spec, ep *Episode, m map[string]float64) {
	p := ep.Setup.P

	// profiler: cold Estimate on the final models, over the profiled range.
	p.Profiler.ResetPredictionCaches()
	feats := map[string]float64{"nodes": 16, "cores": 2, "memoryMB": 3456}
	calls := 0
	start := time.Now()
	for _, op := range spec.Operators {
		for _, rec := range op.Space.Records {
			feats["records"] = float64(rec) * 1.5
			feats["bytes"] = feats["records"] * float64(op.Space.BytesPerRecord)
			p.Profiler.Estimate(op.Name, profiler.TargetExecTime, feats)
			calls++
		}
	}
	m["profiler.estimate_us"] = usOf(time.Since(start)) / float64(calls)

	// model: selection and k-NN on a synthetic matrix as deep as the
	// deepest operator history of this episode.
	rows := int(m["profiler.samples_max"])
	X, y := syntheticMatrix(rows, len(profiler.BaseFeatures), spec.Options.Seed)
	start = time.Now()
	if _, _, err := model.SelectBestRelative(model.DefaultFactories(spec.Options.Seed), X, y, 5, spec.Options.Seed); err != nil {
		ep.failf("model.select cell: %v", err)
	}
	m["model.select_ms"] = ms(time.Since(start))
	start = time.Now()
	knn := model.NewKNN(3)
	if err := knn.Train(X, y); err != nil {
		ep.failf("model.knn cell: %v", err)
	}
	for _, x := range X {
		knn.Predict(x)
	}
	m["model.knn_predict_us"] = usOf(time.Since(start)) / float64(rows)

	m["vtime.handoff_ns"] = handoffCell()
	var err error
	if m["cluster.lease_cycle_ns"], err = leaseCycleCell(spec); err != nil {
		ep.failf("cluster.lease_cycle cell: %v", err)
	}
	m["cluster.reconcile_us"] = usOf(perOp(20, func() { p.Cluster.Reconcile() }))

	// trace: what one event costs the platform's own recorder.
	events := p.TraceEvents()
	if len(events) > 0 {
		rec := trace.NewRecorder(0)
		start = time.Now()
		for _, ev := range events {
			rec.Emit(ev)
		}
		m["trace.emit_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(events))
	}
	m["trace.exposition_ms"] = ms(perOp(5, func() {
		if err := p.Metrics().WritePrometheus(io.Discard); err != nil {
			ep.failf("exposition cell: %v", err)
		}
	}))
	if runs := p.Runs(); len(runs) > 0 {
		n := len(runs)
		if n > 100 {
			n = 100
		}
		i := 0
		m["trace.for_run_us"] = usOf(perOp(n, func() {
			p.TraceForRun(runs[i*len(runs)/n].ID)
			i++
		}))
	}

	// operator / metadata: matching and parsing the workload's own inputs.
	algs := map[string]bool{}
	var abstracts []*operator.Abstract
	var descs []string
	for _, op := range spec.Operators {
		descs = append(descs, op.Description)
		mo, ok := p.Library.Operator(op.Name)
		if !ok || algs[mo.Algorithm()] {
			continue
		}
		algs[mo.Algorithm()] = true
		abstracts = append(abstracts, operator.NewAbstract(mo.Algorithm(),
			metadata.MustParse("Constraints.OpSpecification.Algorithm.name="+mo.Algorithm())))
	}
	var matchNs int64
	for _, a := range abstracts {
		p.Library.ResetMatchIndex()
		t := time.Now()
		p.Library.FindMaterialized(a)
		matchNs += time.Since(t).Nanoseconds()
	}
	m["operator.match_us"] = float64(matchNs) / 1e3 / float64(len(abstracts))
	for _, wave := range spec.Waves {
		for _, r := range wave {
			descs = append(descs, r.Workflow.Source)
		}
	}
	start = time.Now()
	for _, d := range descs {
		if _, err := metadata.ParseString(d); err != nil {
			ep.failf("metadata.parse cell: %v", err)
		}
	}
	m["metadata.parse_us"] = usOf(time.Since(start)) / float64(len(descs))
}

// syntheticMatrix is a training set shaped like an operator history: the
// base features with a noisy linear-plus-fixed-cost target.
func syntheticMatrix(rows, dims int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range X {
		X[i] = make([]float64, dims)
		for j := range X[i] {
			X[i][j] = float64(1 + rng.Intn(1000))
		}
		y[i] = 10 + 0.05*X[i][0] + 0.01*X[i][1] + rng.Float64()
	}
	return X, y
}

// handoffCell has 8 parties take turns on a fresh clock and returns the
// wall per wake.
func handoffCell() float64 {
	const parties, wakes = 8, 2000
	clock := vtime.NewClock()
	done := make(chan struct{})
	for i := 0; i < parties; i++ {
		party := clock.Join()
		offset := time.Duration(i) * time.Millisecond
		go func() {
			party.Await()
			for k := 1; k <= wakes; k++ {
				party.WaitUntil(time.Duration(k)*time.Second + offset)
			}
			party.Leave()
			done <- struct{}{}
		}()
	}
	start := time.Now()
	clock.Kick()
	for i := 0; i < parties; i++ {
		<-done
	}
	return float64(time.Since(start).Nanoseconds()) / float64(parties*wakes)
}

// leaseCycleCell times a full lease cycle on a fresh default-sized cluster,
// with slice leases when the workload submits slice demands.
func leaseCycleCell(spec *Spec) (float64, error) {
	slices := false
	for _, wave := range spec.Waves {
		for _, r := range wave {
			if r.Submit.DemandCores > 0 {
				slices = true
			}
		}
	}
	c := cluster.New(vtime.NewClock(), 16, 2, 3456)
	var cellErr error
	d := perOp(2000, func() {
		var r *cluster.Reservation
		var err error
		if slices {
			r, err = c.ReserveSlices(2, 1, 1024)
		} else {
			r, err = c.Reserve(2)
		}
		if err != nil {
			cellErr = err
			return
		}
		ctrs, err := c.AllocateIn(r, 2, 1, 512)
		if err != nil {
			cellErr = err
		}
		c.ReleaseAll(ctrs)
		c.ReleaseReservation(r)
	})
	return float64(d.Nanoseconds()), cellErr
}
