package executor

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/metrics"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/trace"
)

// hookTracer records events and calls on for each one as it is emitted.
type hookTracer struct {
	*trace.Recorder
	on func(ev trace.Event)
}

func (h hookTracer) Emit(ev trace.Event) {
	h.Recorder.Emit(ev)
	h.on(ev)
}

func countEvents(events []trace.Event, kind trace.EventType) int {
	n := 0
	for _, ev := range events {
		if ev.Type == kind {
			n++
		}
	}
	return n
}

// TestResumeSkipsCompletedSteps suspends a chain at the boundary after its
// first operator and resumes it from the reported done set: the resumed
// segment replans around the intermediate and never re-runs the operator.
func TestResumeSkipsCompletedSteps(t *testing.T) {
	f := newFixture(t)
	g := chainWorkflow(t, 5_000)
	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	suspend := false
	f.exec.Suspend = func() bool { return suspend }
	f.exec.Observer = func(op string, run *metrics.Run) {
		if strings.HasPrefix(op, "wordcount") {
			suspend = true
		}
	}
	res, err := f.execute(g, plan)
	if !errors.Is(err, ErrSuspended) {
		t.Fatalf("err = %v, want ErrSuspended", err)
	}
	if len(res.Intermediates) != 1 || res.Intermediates[0].Dataset != "d1" {
		t.Fatalf("intermediates = %+v, want d1 alone", res.Intermediates)
	}
	f.checkClean(t)

	suspend = false
	var observed []string
	f.exec.Observer = func(op string, run *metrics.Run) { observed = append(observed, op) }
	res2, err := f.resume(g, res.Intermediates)
	if err != nil {
		t.Fatal(err)
	}
	if res2.FinalRecords <= 0 {
		t.Fatal("resumed run produced no target")
	}
	for _, log := range res2.StepLog {
		if strings.HasPrefix(log.Name, "wc/") {
			t.Fatalf("resumed run re-executed %s", log.Name)
		}
	}
	if len(observed) != 1 || !strings.HasPrefix(observed[0], "sort") {
		t.Fatalf("resumed run observed %v, want the sort alone", observed)
	}
	f.checkClean(t)

	f.exec.Replanner = nil
	if _, err := f.resume(g, res.Intermediates); err == nil {
		t.Fatal("Resume without a Replanner accepted")
	}
	f.exec.Replanner = f.plnr
	if _, err := f.resume(g, []planner.MaterializedIntermediate{{Dataset: "nope"}}); err == nil {
		t.Fatal("Resume from an unknown intermediate accepted")
	}
}

// TestCheckpointYieldThenRestore runs a checkpointed chain whose scheduler
// asks it to suspend the moment the first checkpoint is written: the attempt
// yields at that boundary (releasing its gang) instead of running to the
// operator boundary, and the resumed run seeds the banked units.
func TestCheckpointYieldThenRestore(t *testing.T) {
	f := newFixture(t)
	g := chainWorkflow(t, 5_000)
	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(0)
	suspend := false
	f.exec.Tracer = hookTracer{rec, func(ev trace.Event) {
		if ev.Type == trace.EvCheckpointWrite {
			suspend = true
		}
	}}
	f.exec.Suspend = func() bool { return suspend }
	f.exec.Checkpoint = CheckpointPolicy{Enabled: true, MinIntervalSec: 0.5}
	f.exec.CkptScope = "run-1"

	res, err := f.execute(g, plan)
	if !errors.Is(err, ErrSuspended) {
		t.Fatalf("err = %v, want ErrSuspended", err)
	}
	if res.CheckpointWrites != 1 || countEvents(rec.Events(), trace.EvAttemptYield) != 1 {
		t.Fatalf("writes = %d, yields = %d; want one of each", res.CheckpointWrites, countEvents(rec.Events(), trace.EvAttemptYield))
	}
	if len(res.Intermediates) != 0 || len(res.StepLog) != 0 {
		t.Fatalf("yield completed work: intermediates %+v, log %+v", res.Intermediates, res.StepLog)
	}
	f.checkClean(t)

	suspend = false
	f.exec.Tracer = rec
	var observed []string
	f.exec.Observer = func(op string, run *metrics.Run) { observed = append(observed, op) }
	res2, err := f.resume(g, res.Intermediates)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CheckpointRestores != 1 || res2.RestoredUnits <= 0 {
		t.Fatalf("restores = %d over %d units, want one seeded attempt", res2.CheckpointRestores, res2.RestoredUnits)
	}
	if countEvents(rec.Events(), trace.EvCheckpointRestore) != 1 {
		t.Fatal("no checkpoint.restore event")
	}
	// The seeded attempt covers only the remaining units: it must not
	// reach the models as a full-operator run.
	for _, op := range observed {
		if strings.HasPrefix(op, "wordcount") {
			t.Fatalf("restored attempt of %s fed to the observer", op)
		}
	}
	if res2.FinalRecords <= 0 {
		t.Fatal("resumed run produced no target")
	}
	f.checkClean(t)
}

// TestSpeculativeCopyLostToNodeCrash crashes the node of a straggler's
// backup copy: the copy fails as a speculative attempt with its containers
// lost, and the original keeps running to completion.
func TestSpeculativeCopyLostToNodeCrash(t *testing.T) {
	f := newFixture(t)
	g := chainWorkflow(t, 5_000)
	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	victim := plan.OperatorSteps()[0]
	if victim.Res.Nodes != 1 {
		t.Fatalf("precondition: %s gangs %d nodes, want 1", victim.Name, victim.Res.Nodes)
	}
	f.exec.Faults = &scriptedInjector{stretch: map[string]float64{victim.Name: 10}}
	f.exec.TimeoutFactor = 2
	f.exec.Speculate = func(s *planner.Step) (SpeculativeChoice, bool) {
		return SpeculativeChoice{OpName: s.Op.Name, Engine: s.Engine, Algorithm: s.Algorithm, Res: s.Res, Params: s.Params}, true
	}
	// busy lists the nodes holding containers.
	busy := func() map[string]bool {
		out := map[string]bool{}
		for _, n := range f.clus.Snapshot() {
			if n.FreeCores() < n.Cores {
				out[n.Name] = true
			}
		}
		return out
	}
	var primary map[string]bool
	crashed := ""
	f.exec.Tracer = hookTracer{trace.NewRecorder(0), func(ev trace.Event) {
		switch {
		case ev.Type == trace.EvAttemptStart && ev.Step == victim.Name && !ev.Speculative && primary == nil:
			primary = busy()
		case ev.Type == trace.EvSpeculate:
			for name := range busy() {
				if !primary[name] {
					crashed = name
					if err := f.clus.FailNode(name, f.clock.Now()+time.Second); err != nil {
						t.Error(err)
					}
				}
			}
		}
	}}

	res, err := f.execute(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if crashed == "" || res.SpeculativeLaunches != 1 {
		t.Fatalf("backup launches = %d, crashed node %q; want one backup on its own node", res.SpeculativeLaunches, crashed)
	}
	if res.SpeculativeWins != 0 || res.ContainersLost != 1 || res.Retries != 0 || res.Replans != 0 {
		t.Fatalf("wins %d, lost %d, retries %d, replans %d; want the original to finish after losing one backup container",
			res.SpeculativeWins, res.ContainersLost, res.Retries, res.Replans)
	}
	var lostBackup, original bool
	for _, log := range res.StepLog {
		if log.Name != victim.Name {
			continue
		}
		lostBackup = lostBackup || (log.Speculative && log.Failed && log.Failure == ErrContainersLost.Error())
		original = original || (!log.Speculative && !log.Failed)
	}
	if !lostBackup || !original {
		t.Fatalf("step log %+v: want a lost speculative attempt and a completed original", res.StepLog)
	}
	if res.FinalRecords <= 0 {
		t.Fatal("workflow did not complete")
	}
	if err := f.clus.RestoreNode(crashed); err != nil {
		t.Fatal(err)
	}
	f.checkClean(t)
}

// TestPlanStepIDsValidated pins that a caller-built plan whose step IDs are
// not positions, or whose dependencies point outside it, is refused with an
// error instead of deadlocking or indexing out of range.
func TestPlanStepIDsValidated(t *testing.T) {
	f := newFixture(t)
	g := chainWorkflow(t, 5_000)
	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) < 2 {
		t.Fatalf("precondition: %d steps", len(plan.Steps))
	}
	clone := func() *planner.Plan {
		cp := *plan
		cp.Steps = make([]*planner.Step, len(plan.Steps))
		for i, s := range plan.Steps {
			sc := *s
			cp.Steps[i] = &sc
		}
		return &cp
	}
	swapped := clone()
	swapped.Steps[0].ID, swapped.Steps[1].ID = 1, 0
	outside := clone()
	outside.Steps[1].DependsOn = []int{len(plan.Steps)}
	negative := clone()
	negative.Steps[1].DependsOn = []int{-1}
	holed := clone()
	holed.Steps[0] = nil
	for name, bad := range map[string]*planner.Plan{"swapped IDs": swapped, "dependency past the end": outside, "negative dependency": negative, "nil step": holed} {
		if _, err := f.execute(g, bad); err == nil || errors.Is(err, ErrDeadlock) {
			t.Fatalf("%s: err = %v, want a plan error", name, err)
		}
	}
	f.checkClean(t)
}
