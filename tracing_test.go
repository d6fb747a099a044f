package ires

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/trace"
)

// faultyRun executes the text workflow on a freshly built platform with a
// fixed seed and chaos enabled, returning the full JSONL event log.
func faultyRun(t *testing.T, seed int64) ([]byte, *Platform, *ExecutionResult) {
	t.Helper()
	p, err := NewPlatform(Options{
		Seed:             seed,
		Retry:            RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Second},
		TimeoutFactor:    2.5,
		BreakerThreshold: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	registerTextOps(t, p)
	if err := p.InjectFaults(FaultConfig{
		Seed:      seed,
		Default:   FaultTransient{FailProb: 0.25},
		Straggler: StragglerFaults{Prob: 0.2, Factor: 3},
		NodeCrashes: []NodeCrash{
			{Node: "node3", At: 30 * time.Second},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Repair the node later so full-cluster steps stay schedulable.
	p.Clock.Schedule(60*time.Second, func(time.Duration) {
		_ = p.RestoreNode("node3")
	})
	wf := textWorkflow(t, p, 200_000)
	_, res, err := p.Run(wf)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := trace.WriteJSONL(&b, p.TraceEvents()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), p, res
}

// Fixed seed => byte-identical event log. Every event is stamped with virtual
// time only, so the trace is a deterministic, assertable artifact.
func TestTraceDeterministicForFixedSeed(t *testing.T) {
	first, _, _ := faultyRun(t, 11)
	second, _, _ := faultyRun(t, 11)
	if len(first) == 0 {
		t.Fatal("no events recorded")
	}
	if !bytes.Equal(first, second) {
		a := strings.Split(string(first), "\n")
		b := strings.Split(string(second), "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("event logs diverge at line %d:\n  %s\n  %s", i, a[i], b[i])
			}
		}
		t.Fatalf("event logs differ in length: %d vs %d lines", len(a), len(b))
	}

	other, _, _ := faultyRun(t, 12)
	if bytes.Equal(first, other) {
		t.Fatal("different seeds produced identical event logs — noise/faults not seeded")
	}
}

// The metrics registry must agree with the execution result's own counters.
func TestMetricsAgreeWithExecutionResult(t *testing.T) {
	_, p, res := faultyRun(t, 11)
	reg := p.Metrics()

	if got := reg.Sum("ires_retries_total"); got != float64(res.Retries) {
		t.Errorf("ires_retries_total = %v, result.Retries = %d", got, res.Retries)
	}
	if got := reg.Sum("ires_replans_total"); got != float64(res.Replans) {
		t.Errorf("ires_replans_total = %v, result.Replans = %d", got, res.Replans)
	}
	if got := reg.Sum("ires_speculative_launches_total"); got != float64(res.SpeculativeLaunches) {
		t.Errorf("ires_speculative_launches_total = %v, result.SpeculativeLaunches = %d", got, res.SpeculativeLaunches)
	}
	if got := reg.Sum("ires_containers_lost_total"); got != float64(res.ContainersLost) {
		t.Errorf("ires_containers_lost_total = %v, result.ContainersLost = %d", got, res.ContainersLost)
	}
	st := p.FaultStats()
	if got := reg.Value("ires_faults_injected_total", map[string]string{"kind": "transient"}); got != float64(st.Transient) {
		t.Errorf("transient injections = %v, FaultStats.Transient = %d", got, st.Transient)
	}
	if got := reg.Value("ires_faults_injected_total", map[string]string{"kind": "straggler"}); got != float64(st.Stragglers) {
		t.Errorf("straggler injections = %v, FaultStats.Stragglers = %d", got, st.Stragglers)
	}
	if got := reg.Sum("ires_node_crashes_total"); got != 1 {
		t.Errorf("ires_node_crashes_total = %v, want 1", got)
	}
	if got := reg.Sum("ires_attempts_total"); got <= 0 {
		t.Error("no attempts counted")
	}
	// All allocations balanced by releases/losses once the run is over.
	if got := reg.Value("ires_containers_live", nil); got != 0 {
		t.Errorf("ires_containers_live = %v after run, want 0", got)
	}
	if got := reg.Value("ires_vtime_seconds", nil); got <= 0 {
		t.Errorf("ires_vtime_seconds = %v, want > 0", got)
	}
	// The profiler's refinement counters are read at every scrape: a second
	// Metrics call counts nothing twice.
	rs := p.Profiler.RefinementStats()
	p.Metrics()
	if got := reg.Value("ires_profiler_observations_total", nil); got != float64(rs.Observations) || got <= 0 {
		t.Errorf("ires_profiler_observations_total = %v, RefinementStats.Observations = %d", got, rs.Observations)
	}
	if got := reg.Value("ires_profiler_fits_total", nil); got != float64(rs.Fits) || got <= 0 {
		t.Errorf("ires_profiler_fits_total = %v, RefinementStats.Fits = %d", got, rs.Fits)
	}
	if got := reg.Value("ires_profiler_fit_errors_total", nil); got != 0 {
		t.Errorf("ires_profiler_fit_errors_total = %v, want 0", got)
	}
	// What the selections cost and who won them: exact counts, each win
	// under its own {family,target} series.
	trained := reg.Value("ires_profiler_cv_cells_total", map[string]string{"outcome": "trained"})
	skipped := reg.Value("ires_profiler_cv_cells_total", map[string]string{"outcome": "skipped"})
	if trained != float64(rs.CellsTrained) || skipped != float64(rs.CellsSkipped) || trained <= 0 || skipped <= 0 {
		t.Errorf("ires_profiler_cv_cells_total = %v trained / %v skipped, RefinementStats = %d / %d, want both positive", trained, skipped, rs.CellsTrained, rs.CellsSkipped)
	}
	if got := reg.Sum("ires_profiler_selection_wins_total"); got != float64(rs.Selections) || got != reg.Value("ires_profiler_selections_total", nil) || got <= 0 {
		t.Errorf("ires_profiler_selection_wins_total sums to %v, RefinementStats.Selections = %d", got, rs.Selections)
	}
	for win, n := range rs.Wins {
		if got := reg.Value("ires_profiler_selection_wins_total", map[string]string{"family": win.Family, "target": win.Target}); got != float64(n) {
			t.Errorf("ires_profiler_selection_wins_total%+v = %v, RefinementStats.Wins = %d", win, got, n)
		}
	}

	// What the fits took in wall-clock time, and how busy they kept the
	// workers: registry only, read at every scrape like the counts.
	wall, busy := p.Profiler.FitTime()
	fitWall, fitBusy := reg.Value("ires_profiler_fit_wall_seconds_total", nil), reg.Value("ires_profiler_fit_busy_seconds_total", nil)
	if fitWall != wall.Seconds() || fitBusy != busy.Seconds() || fitWall <= 0 || fitBusy <= 0 || fitBusy > fitWall*float64(runtime.GOMAXPROCS(0)) {
		t.Errorf("fits took %v s wall and %v s busy (Profiler.FitTime %v / %v) at GOMAXPROCS=%d: want both positive, busy at most wall x GOMAXPROCS",
			fitWall, fitBusy, wall, busy, runtime.GOMAXPROCS(0))
	}

	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"ires_attempts_total", "ires_vtime_seconds", "# TYPE", "# HELP ires_profiler_selections_total",
		"# HELP ires_profiler_cv_cells_total", "# HELP ires_profiler_selection_wins_total", `ires_profiler_cv_cells_total{outcome="skipped"}`,
		"# HELP ires_profiler_fit_wall_seconds_total", "# HELP ires_profiler_fit_busy_seconds_total"} {
		if !strings.Contains(b.String(), metric) {
			t.Errorf("Prometheus exposition missing %q", metric)
		}
	}
}

// What the monitor's polls came to is on /metrics, by outcome, and nowhere in
// the trace: the two outcomes sum to Monitor.Ticks, a quiet period is an
// idle poll, the crash and the repair are changed ones.
func TestMetricsCountMonitorPollsByOutcome(t *testing.T) {
	log, p, _ := faultyRun(t, 11)
	reg := p.Metrics()
	outcome := func(o string) float64 {
		return reg.Value("ires_monitor_polls_total", map[string]string{"outcome": o})
	}
	idle, changed := outcome("idle"), outcome("changed")
	if ticks := float64(p.Monitor.Ticks()); idle+changed != ticks || reg.Sum("ires_monitor_polls_total") != ticks {
		t.Errorf("ires_monitor_polls_total = %v idle + %v changed, Monitor.Ticks = %v", idle, changed, ticks)
	}
	// The first poll, node3's crash and its repair each change the board;
	// the stretches between, containers coming and going, are idle.
	if idle <= 0 || changed < 3 {
		t.Errorf("ires_monitor_polls_total = %v idle / %v changed, want idle positive and at least 3 changed", idle, changed)
	}
	// Read at every scrape: a second call counts nothing twice.
	if got := p.Metrics().Sum("ires_monitor_polls_total"); got != float64(p.Monitor.Ticks()) {
		t.Errorf("ires_monitor_polls_total sums to %v after a second Metrics call, Monitor.Ticks = %d", got, p.Monitor.Ticks())
	}
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# HELP ires_monitor_polls_total", `ires_monitor_polls_total{outcome="idle"}`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
	if bytes.Contains(log, []byte("monitor")) {
		t.Error("the JSONL trace mentions the monitor: poll outcomes are registry-only")
	}
}

// A recorder that aged events out of its window says so in the registry:
// without the counter a truncated TraceForRun looks like a complete one.
func TestMetricsReportDroppedTraceEvents(t *testing.T) {
	p, err := NewPlatform(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics().Value("ires_trace_dropped_total", nil); got != 0 {
		t.Fatalf("ires_trace_dropped_total = %v on a fresh platform, want 0", got)
	}
	for i := 0; i < trace.DefaultMaxEvents+7; i++ {
		p.recorder.Emit(trace.Event{Type: trace.EvAttemptRetry})
	}
	reg := p.Metrics()
	if got := reg.Value("ires_trace_dropped_total", nil); got != 7 {
		t.Errorf("ires_trace_dropped_total = %v, want 7", got)
	}
	// Read at every scrape: a second call counts nothing twice.
	if got := p.Metrics().Value("ires_trace_dropped_total", nil); got != 7 {
		t.Errorf("ires_trace_dropped_total = %v after a second Metrics call, want 7", got)
	}
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# HELP ires_trace_dropped_total") {
		t.Error("Prometheus exposition missing the ires_trace_dropped_total HELP line")
	}
}

// TraceSeq/TraceSince window a single run's timeline out of the recorder.
func TestTraceSinceWindowsOneRun(t *testing.T) {
	p, err := NewPlatform(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	registerTextOps(t, p)
	wf := textWorkflow(t, p, 10_000)
	plan, err := p.Plan(wf)
	if err != nil {
		t.Fatal(err)
	}
	seq := p.TraceSeq()
	if _, err := p.Execute(wf, plan); err != nil {
		t.Fatal(err)
	}
	window := p.TraceSince(seq)
	if len(window) == 0 {
		t.Fatal("no events in execution window")
	}
	for _, ev := range window {
		if ev.Seq <= seq {
			t.Fatalf("event %d leaked into window starting after %d", ev.Seq, seq)
		}
		if ev.Type == trace.EvPlanStart && ev.Fields["replan"] == 0 && ev.Fields["pareto"] == 0 {
			t.Fatalf("initial planning event leaked into the execution window: %+v", ev)
		}
	}
	starts, finishes := 0, 0
	for _, ev := range window {
		switch ev.Type {
		case trace.EvAttemptStart:
			starts++
		case trace.EvAttemptFinish:
			finishes++
		}
	}
	if starts == 0 || starts != finishes {
		t.Fatalf("attempt starts/finishes = %d/%d, want equal and > 0", starts, finishes)
	}
}

// The planner's cache counters on /metrics are PlannerCacheStats, read when
// the registry is read (a flush with no build after it included), and no
// trace event carries them: warm and cold builds must trace byte-identically.
func TestCacheMetricsAgree(t *testing.T) {
	p := deadlineMetricsScenario(t)
	var log bytes.Buffer
	if err := trace.WriteJSONL(&log, p.TraceEvents()); err != nil {
		t.Fatal(err)
	}
	p.ResetPlannerCache()
	reg, cs := p.Metrics(), p.PlannerCacheStats()
	if cs.Hits == 0 || cs.Misses == 0 || cs.Epoch == 0 || cs.EvictedEntries == 0 {
		t.Fatalf("want hits, misses, evictions and a flush: %+v", cs)
	}
	for name, want := range map[string]uint64{
		"ires_planner_cache_hits_total":            cs.Hits,
		"ires_planner_cache_misses_total":          cs.Misses,
		"ires_planner_epoch":                       cs.Epoch,
		"ires_planner_partial_invalidations_total": cs.PartialInvalidations,
		"ires_planner_evicted_entries_total":       cs.EvictedEntries,
	} {
		if got := reg.Value(name, nil); got != float64(want) {
			t.Errorf("%s = %v, PlannerCacheStats says %d", name, got, want)
		}
	}
	for _, field := range []string{`"cacheHits"`, `"cacheMisses"`} {
		if bytes.Contains(log.Bytes(), []byte(field)) {
			t.Errorf("a trace event carries the cache counter %s", field)
		}
	}
}
