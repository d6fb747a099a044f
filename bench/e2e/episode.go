package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/pegasus"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/scheduler"
)

// An episode is one fixed, generated amount of work on a fresh platform:
// set-up (NewPlatform, registration, offline profiling), then a closed loop
// of one client — submit a wave, Drain, submit the next — or, for plan_wide,
// one planning request after another.

// Setup is a platform built from a Spec and the cost of building it.
type Setup struct {
	P           *ires.Platform
	Graphs      []*ires.Workflow // plan_wide only
	Seg         Segment          // wall of the set-up and the host slowdown around it
	OfflineMs   float64          // sum of ProfileOperator wall
	RegisterUs  float64          // mean RegisterOperator wall
	ProfilerGen uint64           // Profiler.Gen() once set-up is done
}

// setUp builds a platform with its defaults and registers and profiles the
// spec's operators. col, when non-nil, installs the tracing hooks.
func setUp(spec *Spec, col *Collector) (*Setup, error) {
	slow := probe()
	start := time.Now()
	opts := spec.Options
	opts.Admission = spec.Policy.admission()
	if col != nil {
		opts.Tracer = col
		if opts.Admission != nil {
			opts.Admission = timedPolicy{inner: opts.Admission, c: col}
		}
	}
	p, err := ires.NewPlatform(opts)
	if err != nil {
		return nil, err
	}
	if col != nil {
		p.SetRunObserver(col.Observed)
	}
	su := &Setup{P: p}
	for _, shape := range spec.CostShapes {
		p.Env.RegisterWorkload(shape)
	}
	var registerNs int64
	for _, op := range spec.Operators {
		t := time.Now()
		if err := p.RegisterOperator(op.Name, op.Description); err != nil {
			return nil, fmt.Errorf("register %s: %w", op.Name, err)
		}
		registerNs += time.Since(t).Nanoseconds()
	}
	for _, op := range spec.Operators {
		t := time.Now()
		if _, err := p.ProfileOperator(op.Name, op.Space); err != nil {
			return nil, fmt.Errorf("profile %s: %w", op.Name, err)
		}
		su.OfflineMs += ms(time.Since(t))
	}
	for _, gs := range spec.Graphs {
		g, err := pegasus.Generate(pegasus.Category(gs.Category), gs.Size)
		if err != nil {
			return nil, err
		}
		su.Graphs = append(su.Graphs, g)
	}
	if spec.Faults != nil {
		if err := p.InjectFaults(*spec.Faults); err != nil {
			return nil, err
		}
	}
	if n := len(spec.Operators); n > 0 {
		su.RegisterUs = float64(registerNs) / 1e3 / float64(n)
	}
	su.ProfilerGen = p.Profiler.Gen()
	wall := time.Since(start)
	su.Seg = Segment{Wall: wall, Slow: (slow + probe()) / 2}
	return su, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Episode is what one episode measured.
type Episode struct {
	SetupSeg Segment
	// Segments are the waves (or blocks of plan requests) of the timed
	// region, first submit (or plan call) to last Drain return, each with
	// the host slowdown probed around it. Late is the index of the first
	// segment of the second half.
	Segments []Segment
	Late     int
	Ops      int
	Failed   int
	Mallocs  uint64
	AllocB   uint64
	LiveHeap uint64
	LatMs    []float64 // per-op latency, in op order
	Kinds    []string  // plan_wide: request kind per op
	VDigest  string
	Errors   []string // failed output checks

	// Traced pass only.
	Runtime  RuntimeStats
	Counters Counters
	Setup    *Setup
}

// Counters are the platform's own counters at the end of the timed region.
type Counters struct {
	Planner              planner.CacheStats
	PredHits, PredMisses uint64
	ProfilerGen          uint64
}

// RuntimeStats are the Go runtime's own counters over the timed region.
type RuntimeStats struct {
	GCCycles   uint32
	GCPauseMs  float64
	GCCPUFrac  float64
	HeapPeakMB float64
	Goroutines int
}

// WallSec is the raw wall time of the timed region, probes excluded.
func (e *Episode) WallSec() float64 {
	_, raw, _ := calibrated(e.Segments)
	return raw
}

// CalSec is the timed region in calibrated seconds.
func (e *Episode) CalSec() float64 {
	_, _, cal := calibrated(e.Segments)
	return cal
}

// rate returns ops per calibrated second over segments[from:to].
func (e *Episode) rate(from, to int) float64 {
	ops, _, cal := calibrated(e.Segments[from:to])
	return ratio(float64(ops), cal)
}

func (e *Episode) failf(format string, args ...any) {
	e.Errors = append(e.Errors, fmt.Sprintf(format, args...))
}

// buildWorkflow parses a chain workflow from its generated description.
func buildWorkflow(p *ires.Platform, ws WorkflowSpec) (*ires.Workflow, error) {
	b := p.NewWorkflow().DatasetWithMeta("d0", ws.Source)
	prev := "d0"
	for i, alg := range ws.Algorithms {
		op, out := fmt.Sprintf("op%d", i), fmt.Sprintf("d%d", i+1)
		b = b.Operator(op, "Constraints.OpSpecification.Algorithm.name="+alg).
			Dataset(out).Chain(prev, op, out)
		prev = out
	}
	return b.Target(prev).Build()
}

// gcCPUSeconds reads the runtime's cumulative GC and total CPU time.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// runEpisode sets up a fresh platform and runs the spec's work on it once.
// With a Collector the episode is traced: client spans are recorded, the
// heap is sampled at wave boundaries and the platform is kept for the
// layer cells.
func runEpisode(spec *Spec, col *Collector) (*Episode, error) {
	su, err := setUp(spec, col)
	if err != nil {
		return nil, err
	}
	ep := &Episode{SetupSeg: su.Seg, Ops: spec.Ops()}
	traced := col != nil
	if traced {
		ep.Setup = su
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPUSeconds()
	peak := m0.HeapAlloc
	sampleHeap := func() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > peak {
			peak = m.HeapAlloc
		}
	}
	if traced {
		col.Begin(SpanEpisode, "")
	}
	if len(spec.Plans) > 0 {
		planLoop(spec, su, ep, col)
	} else {
		err = runLoop(spec, su.P, ep, col, sampleHeap)
	}
	if traced {
		col.End()
	}
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := gcCPUSeconds()

	ep.Mallocs = m1.Mallocs - m0.Mallocs
	ep.AllocB = m1.TotalAlloc - m0.TotalAlloc
	if m1.HeapAlloc > peak {
		peak = m1.HeapAlloc
	}
	ep.Runtime = RuntimeStats{
		GCCycles:   m1.NumGC - m0.NumGC,
		GCPauseMs:  float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		HeapPeakMB: float64(peak) / (1 << 20),
		Goroutines: runtime.NumGoroutine(),
	}
	if cpu1 > cpu0 {
		ep.Runtime.GCCPUFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	if traced {
		ep.Counters.Planner = su.P.PlannerCacheStats()
		ep.Counters.PredHits, ep.Counters.PredMisses = su.P.Profiler.PredictionCacheStats()
		ep.Counters.ProfilerGen = su.P.Profiler.Gen()
	}

	if len(spec.Plans) > 0 {
		checkPlans(spec, su, ep)
	} else {
		checkRuns(spec, su.P, ep)
	}

	// What a lifetime retains: the heap after a forced collection with the
	// platform still referenced.
	runtime.GC()
	runtime.ReadMemStats(&m1)
	ep.LiveHeap = m1.HeapAlloc
	runtime.KeepAlive(su)
	return ep, nil
}

// spanProbe probes the host's speed. In a traced episode the probe is a span
// of its own, so that no layer is charged for it.
func spanProbe(col *Collector) float64 {
	if col != nil {
		col.Begin(SpanProbe, "")
		defer col.End()
	}
	return probe()
}

// probed runs one stretch of the timed region, probes the host after it and
// appends the Segment; before is the probe taken ahead of the stretch.
func probed(ep *Episode, col *Collector, before float64, ops int, stretch func() error) (after float64, err error) {
	start := time.Now()
	err = stretch()
	wall := time.Since(start)
	after = spanProbe(col)
	ep.Segments = append(ep.Segments, Segment{Ops: ops, Wall: wall, Slow: (before + after) / 2})
	return after, err
}

// runLoop is the closed loop of the run workloads: one segment per wave.
func runLoop(spec *Spec, p *ires.Platform, ep *Episode, col *Collector, sampleHeap func()) error {
	ep.Late = len(spec.Waves) / 2
	ep.LatMs = make([]float64, ep.Ops)
	var waiters sync.WaitGroup
	next := 0
	slow := spanProbe(col)
	for w, wave := range spec.Waves {
		var err error
		slow, err = probed(ep, col, slow, len(wave), func() error {
			if col != nil {
				col.Begin(SpanWave, "")
				defer col.End()
			}
			outage := spec.Outage != nil && w == spec.Outage.Wave
			if outage {
				cfg := *spec.Faults
				cfg.Seed++
				cfg.Outages = []ires.EngineOutage{{Engine: spec.Outage.Engine, At: deadlineAt(p.Clock.Now(), spec.Outage.AfterSec)}}
				if err := p.InjectFaults(cfg); err != nil {
					return err
				}
			}
			for _, r := range wave {
				ts := time.Now()
				span := -1
				if col != nil {
					span = col.Begin(SpanSubmit, "")
				}
				wf, err := buildWorkflow(p, r.Workflow)
				if err != nil {
					return err
				}
				opts := r.Submit
				if r.DeadlineInSec > 0 {
					opts.Deadline = deadlineAt(p.Clock.Now(), r.DeadlineInSec)
				}
				run := p.SubmitWith(wf, opts)
				if col != nil {
					col.SetRun(span, run.ID())
					col.End()
				}
				// The client waits on every run it submitted: a run's
				// latency ends when its done channel closes.
				waiters.Add(1)
				go func(lat *float64) {
					defer waiters.Done()
					<-run.Done()
					*lat = ms(time.Since(ts))
				}(&ep.LatMs[next])
				next++
			}
			if col != nil {
				col.Begin(SpanDrain, "")
			}
			p.Drain()
			waiters.Wait()
			if col != nil {
				col.End()
			}
			if outage {
				p.SetEngineAvailable(spec.Outage.Engine, true)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if col != nil {
			sampleHeap()
		}
	}
	return nil
}

// planBlock is how many planning requests make one segment of plan_wide.
const planBlock = 50

// planLoop issues the planning requests of plan_wide one after another.
func planLoop(spec *Spec, su *Setup, ep *Episode, col *Collector) {
	p := su.P
	ep.Late = (len(spec.Plans)/planBlock + 1) / 2
	ep.LatMs = make([]float64, 0, len(spec.Plans))
	ep.Kinds = make([]string, 0, len(spec.Plans))
	h := sha256.New()
	var buf []byte
	slow := spanProbe(col)
	for lo := 0; lo < len(spec.Plans); lo += planBlock {
		block := spec.Plans[lo:min(lo+planBlock, len(spec.Plans))]
		slow, _ = probed(ep, col, slow, len(block), func() error {
			for i, req := range block {
				g := su.Graphs[req.Graph]
				ts := time.Now()
				if col != nil {
					col.Begin(SpanRequest, req.Kind)
				}
				switch req.Kind {
				case PlanCold:
					p.ResetPlannerCache()
				case PlanFlap:
					p.SetEngineAvailable(req.Engine, req.Up)
				}
				var plans []*ires.Plan
				var err error
				if req.Kind == PlanPareto {
					plans, err = p.ParetoPlans(g)
				} else {
					var plan *ires.Plan
					plan, err = p.Plan(g)
					plans = append(plans, plan)
				}
				if col != nil {
					col.End()
				}
				ep.LatMs = append(ep.LatMs, ms(time.Since(ts)))
				ep.Kinds = append(ep.Kinds, req.Kind)
				if err != nil {
					ep.Failed++
					ep.failf("plan %d (%s on graph %d): %v", lo+i, req.Kind, req.Graph, err)
					continue
				}
				for _, plan := range plans {
					buf = appendPlanDigest(buf[:0], plan)
					h.Write(buf)
				}
			}
			return nil
		})
	}
	ep.VDigest = hex.EncodeToString(h.Sum(nil))
}

// appendPlanDigest appends what identifies a plan — its estimates and, per
// step, the chosen implementation and resources (the fields Plan.Describe
// prints) — without allocating, so it can run inside the timed loop.
func appendPlanDigest(b []byte, plan *ires.Plan) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(plan.EstTimeSec))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(plan.EstCost))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(plan.Steps)))
	for _, s := range plan.Steps {
		b = append(b, s.Name...)
		b = append(b, 0)
		b = append(b, s.Engine...)
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Res.Nodes))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Res.CoresPerN))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Res.MemMBPerN))
	}
	return b
}

// checkRuns verifies the outputs of a run workload and computes its virtual
// digest. Virtual time is deterministic, so the digest must not depend on
// how long anything took on the host.
func checkRuns(spec *Spec, p *ires.Platform, ep *Episode) {
	runs := p.Runs()
	if len(runs) != ep.Ops {
		ep.failf("%d runs recorded, %d submitted", len(runs), ep.Ops)
	}
	h := sha256.New()
	for _, r := range runs {
		if r.Status != scheduler.StatusSucceeded.String() {
			ep.Failed++
			if spec.Faults == nil {
				ep.failf("run %s (%s) ended %s: %s", r.ID, r.Workflow, r.Status, r.Error)
			}
		}
		fmt.Fprintf(h, "%s %s %v %v %v %d\n", r.ID, r.Status, r.StartedSec, r.FinishedSec, r.MakespanSec, r.Preemptions)
	}
	ep.VDigest = hex.EncodeToString(h.Sum(nil))
}

// checkPlans verifies, outside the timed region, that the planner's warm
// answer for every graph equals a fresh cold one.
func checkPlans(spec *Spec, su *Setup, ep *Episode) {
	for i, g := range su.Graphs {
		warm, err := su.P.Plan(g)
		if err != nil {
			ep.failf("graph %d: warm plan: %v", i, err)
			continue
		}
		su.P.ResetPlannerCache()
		cold, err := su.P.Plan(g)
		if err != nil {
			ep.failf("graph %d: cold plan: %v", i, err)
			continue
		}
		if warm.Describe() != cold.Describe() {
			ep.failf("graph %d (%s/%d): warm plan differs from a fresh cold plan", i, spec.Graphs[i].Category, spec.Graphs[i].Size)
		}
	}
}
