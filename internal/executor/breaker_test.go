package executor

import (
	"reflect"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/vtime"
)

// TestCircuitBreakerLifecycle walks one engine through the breaker's states:
// failures below the threshold, the trip, the cooldown, the half-open
// readmission and its immediate re-trip, and the reset on a success.
func TestCircuitBreakerLifecycle(t *testing.T) {
	clock := vtime.NewClock()
	rec := trace.NewRecorder(0)
	b := NewCircuitBreaker(clock, 2, 30*time.Second)
	b.Tracer = rec

	if b.RecordFailure("Spark") {
		t.Fatal("first failure tripped a threshold-2 breaker")
	}
	if !b.Allows("Spark") {
		t.Fatal("engine excluded below the threshold")
	}
	if !b.RecordFailure("Spark") {
		t.Fatal("second consecutive failure did not trip")
	}
	if b.RecordFailure("Spark") {
		t.Fatal("a failure while tripped reported a second trip")
	}
	if b.Allows("Spark") {
		t.Fatal("tripped engine allowed inside its cooldown")
	}
	// A second engine trips later; Tripped lists both, sorted.
	clock.Advance(10 * time.Second)
	b.RecordFailure("Hadoop")
	b.RecordFailure("Hadoop")
	if got, want := b.Tripped(), []string{"Hadoop", "Spark"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Tripped = %v, want %v", got, want)
	}

	// Spark's cooldown ends at 30 s, Hadoop's at 40 s.
	clock.Advance(20 * time.Second)
	if got, want := b.Tripped(), []string{"Hadoop"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Tripped after Spark's cooldown = %v, want %v", got, want)
	}
	if !b.Allows("Spark") {
		t.Fatal("engine still excluded after its cooldown (half-open)")
	}
	// Half-open keeps the count one short of the threshold: the next
	// failure re-trips at once.
	if !b.RecordFailure("Spark") {
		t.Fatal("failure after half-open readmission did not re-trip")
	}
	if b.Allows("Spark") {
		t.Fatal("re-tripped engine allowed")
	}
	b.RecordSuccess("Spark")
	if !b.Allows("Spark") {
		t.Fatal("success did not close the breaker")
	}
	if b.RecordFailure("Spark") {
		t.Fatal("success did not reset the consecutive count")
	}

	var kinds []trace.EventType
	for _, ev := range rec.Events() {
		kinds = append(kinds, ev.Type)
	}
	want := []trace.EventType{trace.EvBreakerTrip, trace.EvBreakerTrip, trace.EvBreakerTrip, trace.EvBreakerReset}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("breaker events = %v, want %v", kinds, want)
	}
	if ev := rec.Events()[0]; ev.Engine != "Spark" || ev.Fields["untilSec"] != 30 || ev.Fields["consecutive"] != 2 {
		t.Fatalf("first trip event = %+v, want Spark until 30 s after 2 failures", ev)
	}
}

// TestCircuitBreakerDisabled pins the inert configurations: a nil breaker, a
// threshold of zero and an unnamed engine never exclude anything, and the
// cooldown defaults to 120 s.
func TestCircuitBreakerDisabled(t *testing.T) {
	var nilBreaker *CircuitBreaker
	if nilBreaker.RecordFailure("Spark") || !nilBreaker.Allows("Spark") || nilBreaker.Tripped() != nil {
		t.Fatal("nil breaker is not inert")
	}
	nilBreaker.RecordSuccess("Spark")

	off := NewCircuitBreaker(nil, 0, 0)
	if off.Cooldown != 120*time.Second {
		t.Fatalf("default cooldown = %v, want 120s", off.Cooldown)
	}
	for i := 0; i < 5; i++ {
		if off.RecordFailure("Spark") {
			t.Fatal("threshold 0 tripped")
		}
	}
	if !off.Allows("Spark") {
		t.Fatal("threshold 0 excluded an engine")
	}

	on := NewCircuitBreaker(nil, 1, time.Second)
	if on.RecordFailure("") {
		t.Fatal("an unnamed engine tripped")
	}
	if !on.RecordFailure("Java") || on.Allows("Java") {
		t.Fatal("threshold 1 did not trip on the first failure")
	}
	if got := on.Tripped(); !reflect.DeepEqual(got, []string{"Java"}) {
		t.Fatalf("Tripped = %v, want [Java]", got)
	}
}
