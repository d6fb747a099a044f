package trace

import (
	"encoding/json"
	"io"
	"sync"
	"unsafe"
)

// DefaultMaxEvents bounds the Recorder's in-memory log; past it the oldest
// events are dropped (the registry keeps counting regardless).
const DefaultMaxEvents = 1 << 16

// blockEvents is the most events one block of a Recorder's log holds: as
// many as fill 32 KiB, the largest size class the allocator serves without
// rounding up to whole pages (215 of today's 152-byte events).
const blockEvents = (32 << 10) / int(unsafe.Sizeof(Event{}))

// Recorder is a Tracer that appends events to a bounded in-memory log and
// folds each into its Registry. It is safe for concurrent use.
//
// The log retains the latest max events. It is kept in blocks of at most
// blockEvents, all full but the last; once the events after the first block
// cover the window, that block is dropped and becomes the next one to fill.
// No event is copied as the log grows, and it holds at most max events plus
// one block; readers always see exactly the retained window.
type Recorder struct {
	mu     sync.Mutex
	seq    int64
	blocks [][]Event // oldest first
	n      int       // events across blocks
	spare  []Event   // the last dropped block, emptied for reuse
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
	last := len(r.blocks) - 1
	if last < 0 || len(r.blocks[last]) == cap(r.blocks[last]) {
		b := r.spare
		if b == nil {
			b = make([]Event, 0, min(blockEvents, r.max))
		}
		r.spare = nil
		r.blocks = append(r.blocks, b)
		last++
	}
	r.blocks[last] = append(r.blocks[last], ev)
	r.n++
	if first := r.blocks[0]; r.n-len(first) >= r.max {
		clear(first)
		r.spare = first[:0]
		r.n -= len(first)
		r.blocks = append(r.blocks[:0], r.blocks[1:]...)
	}
	r.mu.Unlock()
	r.reg.fold(ev)
}

// windowLocked calls fn on the retained events from the i-th on, in
// order, one block segment at a time; the caller holds r.mu.
func (r *Recorder) windowLocked(i int, fn func([]Event)) {
	off := r.n - r.retainedLocked() + i
	for _, b := range r.blocks {
		if off < len(b) {
			fn(b[off:])
			off = 0
		} else {
			off -= len(b)
		}
	}
}

// retainedLocked returns the number of events in the retention window; the
// caller holds r.mu.
func (r *Recorder) retainedLocked() int {
	return min(r.n, r.max)
}

// copyLocked returns a copy of the retained events from the i-th on, nil
// when there are none; the caller holds r.mu.
func (r *Recorder) copyLocked(i int) []Event {
	n := r.retainedLocked() - i
	if n <= 0 {
		return nil
	}
	out := make([]Event, 0, n)
	r.windowLocked(i, func(seg []Event) { out = append(out, seg...) })
	return out
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
	return r.copyLocked(0)
}

// Since returns the retained events with Seq > seq — the capture primitive
// for per-run timelines.
func (r *Recorder) Since(seq int64) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Sequence numbers are consecutive: the window holds r.seq-retained+1
	// through r.seq, so the first event after seq sits at a known offset.
	oldest := r.seq - int64(r.retainedLocked()) + 1
	if seq < oldest {
		return r.copyLocked(0)
	}
	if seq >= r.seq {
		return nil
	}
	return r.copyLocked(int(seq - oldest + 1))
}

// ForRun returns the retained events belonging to one scheduler run,
// renumbered 1..n so a run's log is byte-stable regardless of what other
// runs interleaved with it in the global sequence.
func (r *Recorder) ForRun(runID string) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	r.windowLocked(0, func(seg []Event) {
		for i := range seg {
			if seg[i].RunID == runID {
				ev := seg[i]
				ev.Seq = int64(len(out) + 1)
				out = append(out, ev)
			}
		}
	})
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
