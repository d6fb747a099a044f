package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMultiSkipsNils(t *testing.T) {
	rec := NewRecorder(0)
	m := Multi(nil, rec, nil)
	m.Emit(Event{Type: EvAttemptStart, Engine: "Spark"})
	if got := rec.Seq(); got != 1 {
		t.Fatalf("Seq = %d, want 1", got)
	}
	if Nop() == nil {
		t.Fatal("Nop() must be usable as a sink")
	}
	Nop().Emit(Event{Type: EvAttemptStart})
}

func TestEventAtStampsVirtualTime(t *testing.T) {
	ev := Event{Type: EvReplan}.At(90 * time.Second)
	if ev.VTimeSec != 90 {
		t.Fatalf("VTimeSec = %v, want 90", ev.VTimeSec)
	}
}

func TestRecorderAggregatesCounters(t *testing.T) {
	rec := NewRecorder(0)
	rec.Emit(Event{Type: EvAttemptStart, Engine: "Spark"})
	rec.Emit(Event{Type: EvAttemptStart, Engine: "Hama", Speculative: true})
	rec.Emit(Event{Type: EvAttemptFinish, Engine: "Hama", Speculative: true})
	rec.Emit(Event{Type: EvAttemptFail, Engine: "Spark", Error: "boom"})
	rec.Emit(Event{Type: EvAttemptRetry, Engine: "Spark"})
	rec.Emit(Event{Type: EvContainerAlloc, Fields: map[string]float64{"containers": 4}})
	rec.Emit(Event{Type: EvContainerRelease, Fields: map[string]float64{"containers": 3}})
	rec.Emit(Event{Type: EvContainerLost, Fields: map[string]float64{"containers": 1}})
	rec.Emit(Event{Type: EvBreakerTrip, Engine: "Spark"})
	rec.Emit(Event{Type: EvReplan})
	rec.Emit(Event{Type: EvFaultTransient})
	rec.Emit(Event{Type: EvFaultStraggler})
	rec.Emit(Event{Type: EvNodeCrash, Node: "node0"})
	rec.Emit(Event{Type: EvPlanStart, Fields: map[string]float64{"nodes": 3}})
	rec.Emit(Event{Type: EvPlanStart, Fields: map[string]float64{"nodes": 3, "replan": 1}})

	reg := rec.Registry()
	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"ires_attempts_total", map[string]string{"engine": "Spark"}, 1},
		{"ires_attempts_total", map[string]string{"engine": "Hama"}, 1},
		{"ires_speculative_launches_total", nil, 1},
		{"ires_speculative_wins_total", nil, 1},
		{"ires_attempt_failures_total", map[string]string{"engine": "Spark"}, 1},
		{"ires_retries_total", nil, 1},
		{"ires_containers_allocated_total", nil, 4},
		{"ires_containers_live", nil, 0},
		{"ires_containers_lost_total", nil, 1},
		{"ires_breaker_trips_total", map[string]string{"engine": "Spark"}, 1},
		{"ires_replans_total", nil, 1},
		{"ires_faults_injected_total", map[string]string{"kind": "transient"}, 1},
		{"ires_faults_injected_total", map[string]string{"kind": "straggler"}, 1},
		{"ires_node_crashes_total", nil, 1},
		{"ires_plans_total", map[string]string{"kind": "plan"}, 1},
		{"ires_plans_total", map[string]string{"kind": "replan"}, 1},
	}
	for _, c := range checks {
		if got := reg.Value(c.name, c.labels); got != c.want {
			t.Errorf("%s%v = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
	if got := reg.Sum("ires_attempts_total"); got != 2 {
		t.Errorf("Sum(attempts) = %v, want 2", got)
	}
}

func TestRecorderRingDropsOldest(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 10; i++ {
		rec.Emit(Event{Type: EvAttemptStart})
	}
	evs := rec.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("retained seq range [%d,%d], want [7,10]", evs[0].Seq, evs[3].Seq)
	}
	if rec.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", rec.Dropped())
	}
	if got := rec.Since(8); len(got) != 2 || got[0].Seq != 9 {
		t.Fatalf("Since(8) = %+v, want seq 9,10", got)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	render := func() string {
		rec := NewRecorder(0)
		rec.Emit(Event{Type: EvAttemptStart, Engine: "Spark"})
		rec.Emit(Event{Type: EvAttemptStart, Engine: "Hama"})
		rec.Emit(Event{Type: EvAttemptStart, Engine: "Spark", VTimeSec: 12.5})
		var b bytes.Buffer
		if err := rec.Registry().WritePrometheus(&b); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		return b.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	want := `# HELP ires_attempts_total operator/move execution attempts started, by engine
# TYPE ires_attempts_total counter
ires_attempts_total{engine="Hama"} 1
ires_attempts_total{engine="Spark"} 2
# HELP ires_trace_dropped_total events aged out of the recorder's bounded window; non-zero means trace reads return a truncated log
# TYPE ires_trace_dropped_total counter
ires_trace_dropped_total 0
# HELP ires_trace_events_total trace events emitted, by type
# TYPE ires_trace_events_total counter
ires_trace_events_total{type="attempt.start"} 3
# HELP ires_vtime_seconds current virtual time of the simulation
# TYPE ires_vtime_seconds gauge
ires_vtime_seconds 12.5
`
	if first != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", first, want)
	}
}

// The registry and recorder must tolerate concurrent emitters and readers
// (run with -race).
func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec.Emit(Event{Type: EvAttemptStart, Engine: "Spark"})
				rec.Emit(Event{Type: EvContainerAlloc, Fields: map[string]float64{"containers": 2}})
				rec.Registry().Value("ires_attempts_total", map[string]string{"engine": "Spark"})
				rec.Events()
				rec.Since(rec.Seq() - 5)
				var b bytes.Buffer
				_ = rec.Registry().WritePrometheus(&b)
			}
		}()
	}
	wg.Wait()
	if got := rec.Registry().Sum("ires_attempts_total"); got != 1600 {
		t.Fatalf("attempts = %v, want 1600", got)
	}
}

// A warmed recorder folds a recorded event stream into its registry without
// allocating: every series is resolved by its label value, so past the first
// pass an event costs only the log's amortized growth. The stream is the
// events of the root package's faultyRun at seed 42 followed by the per-run
// logs of its FairShare(3) concurrentBatch at seed 42, as WriteJSONL wrote
// them.
func TestRecorderEmitAllocatesNothing(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "replay.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []Event
	for dec := json.NewDecoder(f); dec.More(); {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	rec := NewRecorder(0)
	replay := func() {
		for _, ev := range events {
			rec.Emit(ev)
		}
	}
	replay()
	if per := testing.AllocsPerRun(100, replay) / float64(len(events)); per > 0.05 {
		t.Fatalf("%.2f allocations per event over %d replayed events, want at most 0.05", per, len(events))
	}
}

func TestGanttDOTPairsAttempts(t *testing.T) {
	events := []Event{
		{Type: EvAttemptStart, Step: "a", Engine: "Spark", Attempt: 1, VTimeSec: 0},
		{Type: EvAttemptFail, Step: "a", Engine: "Spark", Attempt: 1, VTimeSec: 5},
		{Type: EvAttemptStart, Step: "a", Engine: "Spark", Attempt: 2, VTimeSec: 6},
		{Type: EvAttemptStart, Step: "a", Engine: "Hama", Attempt: 3, Speculative: true, VTimeSec: 8},
		{Type: EvAttemptFinish, Step: "a", Engine: "Spark", Attempt: 2, VTimeSec: 10},
	}
	dot := GanttDOT(events)
	for _, want := range []string{
		"digraph gantt",
		`label="Spark"`,
		`label="Hama"`,
		"[0.0s, 5.0s] #1", "style=dashed",
		"[6.0s, 10.0s] #2",
		"peripheries=2",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("GanttDOT output missing %q:\n%s", want, dot)
		}
	}
}
