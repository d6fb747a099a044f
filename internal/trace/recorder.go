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
// folds each into its Registry. It is safe for concurrent use.
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
// when max <= 0). Its registry counts the events that aged out of the log as
// ires_trace_dropped_total.
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = DefaultMaxEvents
	}
	r := &Recorder{max: max, reg: newRegistry()}
	r.reg.AddCollector(func(put func(string, float64, ...string)) {
		put("ires_trace_dropped_total", float64(r.Dropped()))
	})
	return r
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
	r.reg.fold(ev)
}

// retainedLocked returns the current retention window (the latest max
// events) without copying; the caller holds r.mu.
func (r *Recorder) retainedLocked() []Event {
	if len(r.events) > r.max {
		return r.events[len(r.events)-r.max:]
	}
	return r.events
}

// Registry exposes the metrics the recorder feeds.
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
