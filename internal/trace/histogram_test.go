package trace

import (
	"strings"
	"testing"
	"time"
)

// finish emits one attempt.finish of durSec virtual seconds on an engine.
func finish(rec *Recorder, engine string, durSec float64) {
	rec.Emit(Event{Type: EvAttemptFinish, Engine: engine, Fields: map[string]float64{"durSec": durSec}})
}

// exposition renders a recorder's registry.
func exposition(t *testing.T, rec *Recorder) string {
	t.Helper()
	var b strings.Builder
	if err := rec.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// Observations land in the first bucket whose bound is >= the value; the
// exposition renders cumulative counts ending at +Inf, then _sum and _count.
func TestHistogramBucketsAndExposition(t *testing.T) {
	rec := NewRecorder(0)
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		finish(rec, "Spark", v)
	}
	if count, sum := rec.Registry().HistogramTotals("ires_attempt_duration_vseconds"); count != 5 || sum != 111.5 {
		t.Fatalf("totals = (%v, %v), want (5, 111.5)", count, sum)
	}
	out := exposition(t, rec)
	for _, want := range []string{
		`ires_attempt_duration_vseconds_bucket{engine="Spark",le="0.5"} 1`, // le is inclusive
		`ires_attempt_duration_vseconds_bucket{engine="Spark",le="1"} 2`,
		`ires_attempt_duration_vseconds_bucket{engine="Spark",le="5"} 3`,
		`ires_attempt_duration_vseconds_bucket{engine="Spark",le="10"} 4`,
		`ires_attempt_duration_vseconds_bucket{engine="Spark",le="60"} 4`,
		`ires_attempt_duration_vseconds_bucket{engine="Spark",le="120"} 5`,
		`ires_attempt_duration_vseconds_bucket{engine="Spark",le="+Inf"} 5`,
		`ires_attempt_duration_vseconds_sum{engine="Spark"} 111.5`,
		`ires_attempt_duration_vseconds_count{engine="Spark"} 5`,
		`# TYPE ires_attempt_duration_vseconds histogram`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// Labeled series aggregate independently; HistogramTotals sums across them.
func TestHistogramLabelsAndTotals(t *testing.T) {
	rec := NewRecorder(0)
	finish(rec, "Spark", 4)
	finish(rec, "Spark", 20)
	finish(rec, "Hama", 6)
	if count, sum := rec.Registry().HistogramTotals("ires_attempt_duration_vseconds"); count != 3 || sum != 30 {
		t.Fatalf("totals = (%v, %v), want (3, 30)", count, sum)
	}
	out := exposition(t, rec)
	for _, want := range []string{
		`ires_attempt_duration_vseconds_bucket{engine="Hama",le="10"} 1`,
		`ires_attempt_duration_vseconds_bucket{engine="Spark",le="10"} 1`,
		`ires_attempt_duration_vseconds_bucket{engine="Spark",le="+Inf"} 2`,
		`ires_attempt_duration_vseconds_sum{engine="Spark"} 24`,
		`ires_attempt_duration_vseconds_count{engine="Hama"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// Every histogram renders the default bounds, and the exposition stays
// byte-deterministic across identical observation sets.
func TestHistogramDefaultBucketsDeterministic(t *testing.T) {
	render := func() string {
		rec := NewRecorder(0)
		for i := 0; i < 50; i++ {
			rec.Emit(Event{Type: EvRunAdmit, Fields: map[string]float64{"waitSec": float64(i)}})
		}
		return exposition(t, rec)
	}
	first := render()
	if !strings.Contains(first, `ires_sched_queue_wait_vseconds_bucket{le="0.5"} 1`+"\n") {
		t.Fatalf("default buckets not applied:\n%s", first)
	}
	for i := 0; i < 3; i++ {
		if got := render(); got != first {
			t.Fatal("histogram exposition is not deterministic")
		}
	}
}

// The recorder folds attempt durations, queue waits and suspension lengths
// into the scheduling histograms.
func TestRecorderSchedulingHistograms(t *testing.T) {
	rec := NewRecorder(0)
	rec.Emit(Event{Type: EvAttemptFinish, Engine: "Spark", Fields: map[string]float64{"durSec": 12}}.At(12 * time.Second))
	rec.Emit(Event{Type: EvRunAdmit, RunID: "run-001", Fields: map[string]float64{"nodes": 4, "waitSec": 3}}.At(15 * time.Second))
	rec.Emit(Event{Type: EvRunSuspend, RunID: "run-001", Fields: map[string]float64{"nodes": 4}}.At(20 * time.Second))
	rec.Emit(Event{Type: EvRunResume, RunID: "run-001", Fields: map[string]float64{"nodes": 4, "suspendedSec": 25}}.At(45 * time.Second))
	reg := rec.Registry()
	if _, sum := reg.HistogramTotals("ires_attempt_duration_vseconds"); sum != 12 {
		t.Fatalf("attempt duration sum = %v, want 12", sum)
	}
	if got, _ := reg.HistogramTotals("ires_sched_queue_wait_vseconds"); got != 1 {
		t.Fatalf("queue wait count = %v, want 1", got)
	}
	if _, sum := reg.HistogramTotals("ires_sched_suspension_vseconds"); sum != 25 {
		t.Fatalf("suspension sum = %v, want 25", sum)
	}
	if got, _ := reg.HistogramTotals("ires_preempt_latency_vseconds"); got != 0 {
		t.Fatalf("preempt latency observed %v times without a latencySec, want 0", got)
	}
	if got := reg.Value("ires_runs_suspended_total", nil); got != 1 {
		t.Fatalf("suspended counter = %v, want 1", got)
	}
	if got := reg.Value("ires_runs_resumed_total", nil); got != 1 {
		t.Fatalf("resumed counter = %v, want 1", got)
	}
}
