package trace

import (
	"fmt"
	"sync"
	"testing"
)

// naiveRecorder is the window oracle for the block log: one slice holding
// every event, the window its last max.
type naiveRecorder struct {
	events []Event
	max    int
}

func (n *naiveRecorder) emit(ev Event) {
	ev.Seq = int64(len(n.events) + 1)
	n.events = append(n.events, ev)
}

func (n *naiveRecorder) window() []Event {
	return n.events[max(0, len(n.events)-n.max):]
}

func (n *naiveRecorder) since(seq int64) []Event {
	w := n.window()
	for i, ev := range w {
		if ev.Seq > seq {
			return w[i:]
		}
	}
	return nil
}

func (n *naiveRecorder) forRun(id string) []Event {
	var out []Event
	for _, ev := range n.window() {
		if ev.RunID == id {
			ev.Seq = int64(len(out) + 1)
			out = append(out, ev)
		}
	}
	return out
}

// sameEvents compares the fields the window test sets, event by event. The
// recorder returns nil for no events; the oracle's empty window may be an
// empty slice.
func sameEvents(got, want []Event) bool {
	if len(got) != len(want) || (len(got) == 0 && got != nil) {
		return false
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Seq != w.Seq || g.RunID != w.RunID || g.Attempt != w.Attempt || g.Type != w.Type {
			return false
		}
	}
	return true
}

func (n *naiveRecorder) dropped() int64 {
	return int64(max(0, len(n.events)-n.max))
}

func TestRecorderMatchesNaiveWindow(t *testing.T) {
	runs := []string{"", "run-1", "run-2"}
	for _, m := range []int{1, 3, 255, 256, 257, 1000} {
		t.Run(fmt.Sprint(m), func(t *testing.T) {
			rec, ref := NewRecorder(m), &naiveRecorder{max: m}
			for i := 0; i < 3*m+17; i++ {
				ev := Event{Type: EvAttemptStart, RunID: runs[i%len(runs)], Attempt: i}
				rec.Emit(ev)
				ref.emit(ev)
				if got, want := rec.Events(), ref.window(); !sameEvents(got, want) {
					t.Fatalf("after %d emits: Events() has %d events, window %d", i+1, len(got), len(want))
				}
				seq := int64(i + 1)
				oldest := seq - int64(len(ref.window())) + 1
				for _, k := range []int64{-1, oldest, (oldest + seq) / 2, seq, seq + 1} {
					if got, want := rec.Since(k), ref.since(k); !sameEvents(got, want) {
						t.Fatalf("after %d emits: Since(%d) has %d events, want %d", i+1, k, len(got), len(want))
					}
				}
				for _, id := range append(runs, "absent") {
					if got, want := rec.ForRun(id), ref.forRun(id); !sameEvents(got, want) {
						t.Fatalf("after %d emits: ForRun(%q) has %d events, want %d", i+1, id, len(got), len(want))
					}
				}
				if got, want := rec.Dropped(), ref.dropped(); got != want {
					t.Fatalf("after %d emits: Dropped() = %d, want %d", i+1, got, want)
				}
				// The first block goes as soon as the rest cover the window,
				// so the log never holds a whole block past it.
				if held, block := recorderHeld(rec), min(m, blockEvents); held >= m+block {
					t.Fatalf("after %d emits: the log holds %d events, max %d plus a whole %d-event block", i+1, held, m, block)
				}
			}
		})
	}
}

// consecutiveWindow reports whether evs is at most limit events with
// consecutive sequence numbers, failing t when not.
func consecutiveWindow(t *testing.T, what string, evs []Event, limit int) bool {
	if len(evs) > limit {
		t.Errorf("%s returned %d events, max %d", what, len(evs), limit)
		return false
	}
	for j := 1; j < len(evs); j++ {
		if evs[j].Seq != evs[j-1].Seq+1 {
			t.Errorf("%s: seq %d follows %d", what, evs[j].Seq, evs[j-1].Seq)
			return false
		}
	}
	return true
}

// recorderHeld returns how many events the recorder's blocks hold.
func recorderHeld(r *Recorder) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Readers racing emitters always see a window of consecutive sequence
// numbers no longer than max, ending at or before the latest one (run with
// -race).
func TestRecorderConcurrentWindow(t *testing.T) {
	const window = 257
	rec := NewRecorder(window)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		id := fmt.Sprintf("run-%d", w)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				rec.Emit(Event{Type: EvAttemptStart, RunID: id})
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				before := rec.Seq()
				evs := rec.Events()
				if !consecutiveWindow(t, "Events()", evs, window) {
					return
				}
				if len(evs) > 0 && evs[len(evs)-1].Seq < before {
					t.Errorf("Events() ends at seq %d, before the %d seen earlier", evs[len(evs)-1].Seq, before)
					return
				}
				// Since starts right after before, unless that event aged
				// out meanwhile: then it returns a whole window.
				s := rec.Since(before)
				if !consecutiveWindow(t, "Since()", s, window) {
					return
				}
				if len(s) > 0 && s[0].Seq != before+1 && len(s) != window {
					t.Errorf("Since(%d) returns %d events from seq %d", before, len(s), s[0].Seq)
					return
				}
				for j, ev := range rec.ForRun(id) {
					if ev.RunID != id || ev.Seq != int64(j+1) {
						t.Errorf("ForRun(%q)[%d] = run %q seq %d", id, j, ev.RunID, ev.Seq)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got, want := rec.Dropped(), int64(4000-window); got != want {
		t.Fatalf("Dropped() = %d, want %d", got, want)
	}
}
