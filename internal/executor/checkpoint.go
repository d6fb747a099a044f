package executor

import (
	"math"
	"sort"
	"time"

	"github.com/asap-project/ires/internal/cluster"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/metrics"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/trace"
)

// CheckpointPolicy enables sub-operator checkpointing: iterative operators
// checkpoint at iteration boundaries, single-pass operators at partition
// boundaries (see engine.CheckpointSpec). Checkpoints bound cooperative
// preemption latency to one checkpoint interval (attempts yield at the next
// boundary instead of the operator boundary) and let retries, speculative
// copies and resumed runs seed completed units instead of restarting the
// operator from unit zero. The zero value disables checkpointing, keeping
// every pre-existing execution timeline byte-identical.
type CheckpointPolicy struct {
	// Enabled turns the layer on.
	Enabled bool
	// MinIntervalSec is the minimum virtual time between checkpoint writes:
	// boundaries arriving faster are skipped so tight iteration loops don't
	// drown in write overhead. Zero or negative defaults to 5s.
	MinIntervalSec float64
	// Durable materializes checkpoints to the shared store so they survive
	// any node crash; otherwise checkpoints are replicated across the gang's
	// nodes only and die with the last replica.
	Durable bool
}

// interval returns the effective minimum checkpoint interval.
func (p CheckpointPolicy) interval() float64 {
	if p.MinIntervalSec <= 0 {
		return 5
	}
	return p.MinIntervalSec
}

// ckptMark is one scheduled checkpoint write inside a live attempt.
type ckptMark struct {
	at    time.Duration // absolute virtual time the write completes
	units int           // work units durably completed at this boundary
}

// ckptPlan is the checkpoint schedule computed at attempt launch.
type ckptPlan struct {
	key        string
	baseUnits  int // units seeded from a stored checkpoint
	totalUnits int
	writeSec   float64
	restoreSec float64
	marks      []ckptMark
}

// ckptKeyOf namespaces a step's checkpoint key by the executor's scope (the
// scheduler run id) and the abstract workflow node — stable across replans
// and across same-algorithm engine switches, so a retry on a different
// engine still resumes the algorithm's banked progress.
func (e *Executor) ckptKeyOf(s *planner.Step) string {
	scope := e.CkptScope
	if scope == "" {
		scope = "run"
	}
	return scope + "/" + s.WorkflowNode
}

// planCheckpoints computes the checkpoint schedule of one attempt: seed
// progress from the store, place a write mark every stride units (at least
// MinIntervalSec apart), and fold restore + write overheads into the run's
// modeled duration and cost. It returns the zero plan when the attempt is
// not checkpointable. run.ExecTimeSec must already include noise and
// straggler stretch; the caller derives the attempt end from the adjusted
// value.
func (st *planRun) planCheckpoints(s *planner.Step, engineName, algorithm string, in engine.Input, res engine.Resources, run *metrics.Run) ckptPlan {
	e := st.e
	if !e.Checkpoint.Enabled || run.ExecTimeSec <= 0 {
		return ckptPlan{}
	}
	spec, ok := e.Env.CheckpointSpec(engineName, algorithm, in, res)
	if !ok {
		return ckptPlan{}
	}
	key := e.ckptKeyOf(s)
	base := e.Cluster.CheckpointProgress(key, algorithm, spec.Units)
	if base >= spec.Units {
		base = spec.Units - 1
	}
	unitSec := run.ExecTimeSec / float64(spec.Units)
	stride := int(math.Ceil(e.Checkpoint.interval() / unitSec))
	if stride < 1 {
		stride = 1
	}
	p := ckptPlan{key: key, baseUnits: base, totalUnits: spec.Units, writeSec: spec.WriteSec}
	if base > 0 {
		p.restoreSec = spec.RestoreSec
	}
	now := e.Clock.Now()
	j := 0
	for u := base + stride; u < spec.Units; u += stride {
		j++
		at := e.LaunchOverheadSec + p.restoreSec + float64(u-base)*unitSec + float64(j)*spec.WriteSec
		p.marks = append(p.marks, ckptMark{at: now + secs(at), units: u})
	}
	// The attempt's actual modeled time: restore, the remaining units, and
	// the checkpoint writes. Cost scales with it so the paper's cost metric
	// charges (and the planner's speculation deadlines see) the real span.
	actual := p.restoreSec + float64(spec.Units-base)*unitSec + float64(j)*spec.WriteSec
	if run.ExecTimeSec > 0 {
		run.CostUnits *= actual / run.ExecTimeSec
	}
	run.ExecTimeSec = actual
	return p
}

// gangNodes returns the sorted distinct node names hosting a gang — the
// replica set of its non-durable checkpoints.
func gangNodes(ctrs []*cluster.Container) []string {
	seen := make(map[string]bool, len(ctrs))
	var out []string
	for _, c := range ctrs {
		if !seen[c.NodeName] {
			seen[c.NodeName] = true
			out = append(out, c.NodeName)
		}
	}
	sort.Strings(out)
	return out
}

// fireMarks handles checkpoint-write decision points: every due mark is
// committed to the cluster store, and — checked directly here, not at the
// outer loop, so a preempt request never waits past the first boundary —
// an attempt that just banked a checkpoint yields cooperatively when a
// suspend is pending, releasing its gang instead of running to the operator
// boundary.
func (st *planRun) fireMarks(now time.Duration) {
	e := st.e
	for i := range st.steps {
		r := &st.steps[i]
		kept := r.copies[:0]
		for _, c := range r.copies {
			fired := false
			for len(c.marks) > 0 && c.marks[0].at <= now {
				m := c.marks[0]
				c.marks = c.marks[1:]
				fired = true
				c.banked = m.units
				e.Cluster.PutCheckpoint(c.key, c.run.Algorithm, m.units, c.totalUnits, gangNodes(c.ctrs), e.Checkpoint.Durable)
				st.res.CheckpointWrites++
				e.emit(trace.Event{
					Type: trace.EvCheckpointWrite, Step: r.step.Name, Operator: c.opName, Engine: c.engineName,
					Attempt: c.attempt, Speculative: c.speculative,
					Fields: map[string]float64{
						"units":      float64(m.units),
						"totalUnits": float64(c.totalUnits),
						"writeSec":   c.writeSec,
					},
				})
			}
			if fired && e.suspendRequested() {
				// Boundary-aware suspension: the checkpoint just written is
				// this attempt's durable progress; drop the gang here.
				e.Cluster.ReleaseAll(c.ctrs)
				if len(c.ctrs) > 0 {
					e.emit(trace.Event{
						Type: trace.EvContainerRelease, Step: r.step.Name, Engine: c.engineName,
						Fields: map[string]float64{"containers": float64(len(c.ctrs))},
					})
				}
				e.emit(trace.Event{
					Type: trace.EvAttemptYield, Step: r.step.Name, Operator: c.opName, Engine: c.engineName,
					Attempt: c.attempt, Speculative: c.speculative,
					Fields: map[string]float64{
						"units":      float64(c.banked),
						"totalUnits": float64(c.totalUnits),
					},
				})
				continue
			}
			kept = append(kept, c)
		}
		// A flight that yielded whole is neither done nor failed: the resumed
		// run replans and its relaunch seeds the banked units.
		r.copies = kept
	}
}
