package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/scheduler"
	"github.com/asap-project/ires/internal/trace"
)

// Tracing from outside. The traced pass measures every layer through the
// extension points the platform already exposes, without touching it:
//
//   - an Options.Tracer that stamps wall time on the events it is handed
//     (plan.start/plan.finish bracket planner work, attempt.finish/fail mark
//     the instant before the executor calls into online refinement) and
//     counts events by type;
//   - a decorator around the AdmissionPolicy that times every Decide;
//   - a SetRunObserver callback, which the platform calls right after
//     Profiler.Observe returns on the goroutine that emitted attempt.finish.
//
// Run executors cooperate on the virtual clock one at a time, so hook spans
// never overlap; the mutex only orders them for the race detector.

// Span names. Hook spans (plan, observe, decide) are leaves under whichever
// client span (submit, drain or request) is open when they fire.
const (
	SpanEpisode = "episode"
	SpanWave    = "wave"
	SpanSubmit  = "scheduler.submit"
	SpanDrain   = "drain"
	SpanRequest = "request" // plan_wide: one planning request, flap or reset included
	SpanProbe   = "probe"   // host speed probe between waves or request blocks (calibrate.go)
	SpanPlan    = "planner.plan"
	SpanObserve = "profiler.observe"
	SpanDecide  = "scheduler.decide"
)

// Span is one timed interval. Parent is the index of the enclosing span in
// Collector.Spans, -1 for the episode.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run,omitempty"`
	// StartUs/EndUs are microseconds since the episode span opened.
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// Collector keeps the spans and counts of one traced episode in memory.
type Collector struct {
	mu    sync.Mutex
	t0    time.Time
	Spans []Span
	open  []int // stack of client spans (episode, wave, submit/drain)

	Events map[ires.TraceEventType]int

	planStart    time.Time
	planRun      string
	planOpen     bool
	attemptStamp time.Time
	attemptRun   string
	attemptOpen  bool

	DecideCalls, DecideEmpty, Actions int
}

func newCollector() *Collector {
	return &Collector{Events: make(map[ires.TraceEventType]int)}
}

func (c *Collector) us(t time.Time) float64 {
	return float64(t.Sub(c.t0).Nanoseconds()) / 1e3
}

// Begin opens a client span under the innermost open one and returns its id.
func (c *Collector) Begin(name, run string) int {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	parent := -1
	if len(c.open) == 0 {
		c.t0 = now
	} else {
		parent = c.open[len(c.open)-1]
	}
	id := len(c.Spans)
	c.Spans = append(c.Spans, Span{ID: id, Parent: parent, Name: name, Run: run, StartUs: c.us(now)})
	c.open = append(c.open, id)
	return id
}

// End closes the innermost client span.
func (c *Collector) End() {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.open[len(c.open)-1]
	c.open = c.open[:len(c.open)-1]
	c.Spans[id].EndUs = c.us(now)
}

// SetRun labels a client span once its run id is known (after SubmitWith).
func (c *Collector) SetRun(id int, run string) {
	c.mu.Lock()
	c.Spans[id].Run = run
	c.mu.Unlock()
}

// leafLocked records a finished hook span under the innermost client span;
// callers check that one is open.
func (c *Collector) leafLocked(name, run string, start, end time.Time) {
	parent := c.open[len(c.open)-1]
	c.Spans = append(c.Spans, Span{
		ID: len(c.Spans), Parent: parent, Name: name, Run: run,
		StartUs: c.us(start), EndUs: c.us(end),
	})
}

// Emit implements ires.Tracer. It keeps nothing of the event but its type
// and run id (emitters hand Fields over to the platform's own recorder).
func (c *Collector) Emit(ev ires.TraceEvent) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.open) == 0 {
		return // set-up or output checks: outside the episode
	}
	c.Events[ev.Type]++
	switch ev.Type {
	case trace.EvPlanStart:
		c.planStart, c.planRun, c.planOpen = now, ev.RunID, true
	case trace.EvPlanFinish:
		if c.planOpen {
			c.leafLocked(SpanPlan, c.planRun, c.planStart, now)
			c.planOpen = false
		}
	case trace.EvAttemptFinish, trace.EvAttemptFail:
		c.attemptStamp, c.attemptRun, c.attemptOpen = now, ev.RunID, true
	}
}

// Observed is the SetRunObserver callback: the platform calls it right
// after Profiler.Observe returns, so the interval since the attempt's
// terminal event is the refinement cost of that observation.
func (c *Collector) Observed(string, *ires.RunMetrics) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attemptOpen && len(c.open) > 0 {
		c.leafLocked(SpanObserve, c.attemptRun, c.attemptStamp, now)
		c.attemptOpen = false
	}
}

// timedPolicy decorates an AdmissionPolicy with a wall-clock span per
// Decide. It forwards Name and NeedsEstimates, so the scheduler behaves
// exactly as it does with the bare policy.
type timedPolicy struct {
	inner ires.AdmissionPolicy
	c     *Collector
}

func (p timedPolicy) Name() string { return p.inner.Name() }

func (p timedPolicy) NeedsEstimates() bool {
	e, ok := p.inner.(scheduler.Estimator)
	return ok && e.NeedsEstimates()
}

func (p timedPolicy) Decide(st scheduler.State) []scheduler.Action {
	start := time.Now()
	actions := p.inner.Decide(st)
	end := time.Now()
	c := p.c
	c.mu.Lock()
	if len(c.open) > 0 {
		c.DecideCalls++
		c.Actions += len(actions)
		if len(actions) == 0 {
			c.DecideEmpty++
		}
		c.leafLocked(SpanDecide, "", start, end)
	}
	c.mu.Unlock()
	return actions
}

// SpanStats aggregates the spans of one name.
type SpanStats struct {
	Count  int
	BusyMs float64   // sum of durations
	SelfMs float64   // durations minus the part child spans cover
	DurUs  []float64 // per-span durations, unsorted
}

// Stats folds the span list by name. Hook spans never overlap, so a span's
// self time is its duration minus the sum of its children's durations.
func (c *Collector) Stats() map[string]*SpanStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	childUs := make([]float64, len(c.Spans))
	for _, s := range c.Spans {
		if s.Parent >= 0 {
			childUs[s.Parent] += s.EndUs - s.StartUs
		}
	}
	out := make(map[string]*SpanStats)
	for _, s := range c.Spans {
		st := out[s.Name]
		if st == nil {
			st = &SpanStats{}
			out[s.Name] = st
		}
		d := s.EndUs - s.StartUs
		st.Count++
		st.BusyMs += d / 1e3
		st.SelfMs += (d - childUs[s.ID]) / 1e3
		st.DurUs = append(st.DurUs, d)
	}
	return out
}

// WriteJSONL writes one span per line.
func (c *Collector) WriteJSONL(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range c.Spans {
		if err := enc.Encode(&c.Spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
