package scheduler

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/cluster"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/vtime"
	"github.com/asap-project/ires/internal/workflow"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace fixtures")

// goldenScenario drives one fixed contention scenario under the given policy
// and returns the scheduler's full event stream as JSONL. The scenario
// exercises every action kind at least under one policy: admissions, EDF
// preemption + resume (Deadline), and a cancellation while queued.
func goldenScenario(t *testing.T, policy Policy) []byte {
	t.Helper()
	clock := vtime.NewClock()
	clu := cluster.New(clock, 4, 8, 16384)
	rec := trace.NewRecorder(1 << 14)
	clu.SetTracer(rec)
	specs := map[string]susSpec{
		"run-001": {steps: 6, stepDur: 10 * time.Second}, // long
		"run-002": {steps: 2, stepDur: 10 * time.Second}, // urgent
		"run-003": {steps: 3, stepDur: 5 * time.Second},  // mid
		"run-004": {steps: 2, stepDur: 5 * time.Second},  // whale
		"run-005": {steps: 1, stepDur: 5 * time.Second},  // late (canceled)
		"run-006": {steps: 1, stepDur: 4 * time.Second},  // tail
	}
	estimates := map[string]float64{
		"long":   60,
		"urgent": 20,
		"mid":    15,
		"whale":  10,
		"late":   5,
		"tail":   4,
	}
	rig := &susRig{clock: clock, clu: clu, rec: newSusRecord()}
	sched, err := New(Config{
		Clock:   clock,
		Cluster: clu,
		Policy:  policy,
		Tracer:  rec,
		Plan: func(g *workflow.Graph) (*planner.Plan, error) {
			return &planner.Plan{Target: g.Target}, nil
		},
		NewExecutor: func(ctx ExecContext) Exec {
			spec, ok := specs[ctx.RunID]
			if !ok {
				spec = susSpec{steps: 4, stepDur: 10 * time.Second}
			}
			return &susExec{clock: clock, ctx: ctx, steps: spec.steps, stepDur: spec.stepDur, rec: rig.rec}
		},
		Estimate: func(g *workflow.Graph) (float64, error) {
			est, ok := estimates[g.Target]
			if !ok {
				return 0, fmt.Errorf("no estimate for %s", g.Target)
			}
			return est, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.sched = sched

	sched.SubmitWith(graph("long"), SubmitOptions{Tenant: "acme"})
	clock.Schedule(10*time.Second, func(time.Duration) {
		sched.SubmitWith(graph("urgent"), SubmitOptions{Tenant: "acme", Deadline: 40 * time.Second})
	})
	clock.Schedule(12*time.Second, func(time.Duration) {
		sched.SubmitWith(graph("mid"), SubmitOptions{Tenant: "beta", Deadline: 120 * time.Second})
	})
	var late *Run
	clock.Schedule(13*time.Second, func(time.Duration) {
		sched.SubmitWith(graph("whale"), SubmitOptions{Tenant: "acme"})
	})
	clock.Schedule(30*time.Second, func(time.Duration) {
		late = sched.SubmitWith(graph("late"), SubmitOptions{Tenant: "beta"})
	})
	clock.Schedule(31*time.Second, func(time.Duration) { late.Cancel() })
	// A node crash and repair mid-batch: free/reserved accounting must track
	// health transitions, and a run keeps the lease it was granted when the
	// repaired node frees up.
	if err := clu.FailNode("node3", 26*time.Second); err != nil {
		t.Fatal(err)
	}
	clock.Schedule(46*time.Second, func(time.Duration) {
		if err := clu.RestoreNode("node3"); err != nil {
			t.Fatal(err)
		}
	})
	clock.Schedule(47*time.Second, func(time.Duration) {
		sched.SubmitWith(graph("tail"), SubmitOptions{Tenant: "beta"})
	})
	sched.Drain()

	// Every run must be terminal: late is canceled, the rest succeed.
	for _, snap := range sched.Runs() {
		switch snap.Status {
		case "succeeded":
		case "canceled":
			if late == nil || snap.ID != late.ID() {
				t.Fatalf("unexpected cancellation: %+v", snap)
			}
		default:
			t.Fatalf("run %s not terminal: %s", snap.ID, snap.Status)
		}
	}
	if err := clu.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenDRFScenario drives a two-tenant contention mix — tenant "compute"
// submits cores-heavy slice demands, tenant "etl" memory-heavy ones — under
// the given policy and returns the full event stream as JSONL. Under DRF the
// two tenants interleave (each dominates a different dimension, so both fit);
// the fixture pins the admission order and the slice-lease grant fields.
func goldenDRFScenario(t *testing.T, policy Policy) []byte {
	t.Helper()
	clock := vtime.NewClock()
	clu := cluster.New(clock, 4, 8, 16384)
	rec := trace.NewRecorder(1 << 14)
	clu.SetTracer(rec)
	specs := map[string]susSpec{
		"run-001": {steps: 4, stepDur: 10 * time.Second},
		"run-002": {steps: 4, stepDur: 10 * time.Second},
		"run-003": {steps: 3, stepDur: 8 * time.Second},
		"run-004": {steps: 3, stepDur: 8 * time.Second},
		"run-005": {steps: 2, stepDur: 5 * time.Second},
		"run-006": {steps: 2, stepDur: 5 * time.Second},
	}
	estimates := map[string]float64{
		"c1": 40, "c2": 40, "c3": 24,
		"m1": 24, "m2": 10, "m3": 10,
	}
	rig := &susRig{clock: clock, clu: clu, rec: newSusRecord()}
	sched, err := New(Config{
		Clock:   clock,
		Cluster: clu,
		Policy:  policy,
		Tracer:  rec,
		Plan: func(g *workflow.Graph) (*planner.Plan, error) {
			return &planner.Plan{Target: g.Target}, nil
		},
		NewExecutor: func(ctx ExecContext) Exec {
			spec, ok := specs[ctx.RunID]
			if !ok {
				spec = susSpec{steps: 3, stepDur: 10 * time.Second}
			}
			return &susExec{clock: clock, ctx: ctx, steps: spec.steps, stepDur: spec.stepDur, rec: rig.rec}
		},
		Estimate: func(g *workflow.Graph) (float64, error) {
			est, ok := estimates[g.Target]
			if !ok {
				return 0, fmt.Errorf("no estimate for %s", g.Target)
			}
			return est, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.sched = sched

	// Cores-heavy slices: 6 of 8 cores, 1/16 of memory. Memory-heavy
	// slices: 1 core, 12288 of 16384 MB. Neither tenant can co-locate two
	// of its own slices on a node, but one of each fits together.
	coresDemand := SubmitOptions{Tenant: "compute", DemandCores: 6, DemandMemMB: 1024}
	memDemand := SubmitOptions{Tenant: "etl", DemandCores: 1, DemandMemMB: 12288}

	c1, m1 := coresDemand, memDemand
	c1.Name, m1.Name = "c1", "m1"
	sched.SubmitWith(graph("c1"), c1)
	sched.SubmitWith(graph("m1"), m1)
	clock.Schedule(5*time.Second, func(time.Duration) {
		c2 := coresDemand
		c2.Name = "c2"
		sched.SubmitWith(graph("c2"), c2)
	})
	clock.Schedule(6*time.Second, func(time.Duration) {
		m2 := memDemand
		m2.Name = "m2"
		sched.SubmitWith(graph("m2"), m2)
	})
	clock.Schedule(20*time.Second, func(time.Duration) {
		c3 := coresDemand
		c3.Name = "c3"
		sched.SubmitWith(graph("c3"), c3)
		m3 := memDemand
		m3.Name = "m3"
		sched.SubmitWith(graph("m3"), m3)
	})
	sched.Drain()

	for _, snap := range sched.Runs() {
		if snap.Status != "succeeded" {
			t.Fatalf("run %s not succeeded: %s", snap.ID, snap.Status)
		}
	}
	if err := clu.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPolicyTraceGolden pins the scheduler's event stream under every shipped
// policy to checked-in fixtures, byte for byte: a change to the scheduler's
// structures may not move a decision. Run with -update to regenerate after an
// intentional semantic change.
func TestPolicyTraceGolden(t *testing.T) {
	policies := []struct {
		name   string
		policy func() Policy
	}{
		{"fifo", func() Policy { return FIFO{} }},
		{"fairshare", func() Policy { return FairShare{MaxConcurrent: 2} }},
		{"deadline", func() Policy { return Deadline{} }},
		{"drf", func() Policy { return DRF{MaxConcurrent: 4} }},
	}
	for _, pc := range policies {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			got := goldenScenario(t, pc.policy())
			if again := goldenScenario(t, pc.policy()); !bytes.Equal(got, again) {
				t.Fatal("scenario is not deterministic across two executions")
			}
			path := filepath.Join("testdata", fmt.Sprintf("golden_%s.jsonl", pc.name))
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trace diverges from fixture %s:\n got %d bytes\nwant %d bytes\nfirst diff at byte %d",
					path, len(got), len(want), firstDiff(got, want))
			}
		})
	}
}

// TestDRFTraceGolden pins the slice-lease event stream of the two-tenant
// cores-heavy vs memory-heavy mix: DRF's interleaved admissions and the
// whole-node baseline (FIFO ignores demands' dimensions for ranking but
// still grants slice leases) each get a fixture. Run with -update to
// regenerate after an intentional semantic change.
func TestDRFTraceGolden(t *testing.T) {
	policies := []struct {
		name   string
		policy func() Policy
	}{
		{"drf_mix", func() Policy { return DRF{MaxConcurrent: 4} }},
		{"drf_mix_weighted", func() Policy { return DRF{Weights: map[string]float64{"etl": 2}, MaxConcurrent: 4} }},
		{"fifo_mix", func() Policy { return FIFO{} }},
	}
	for _, pc := range policies {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			got := goldenDRFScenario(t, pc.policy())
			if again := goldenDRFScenario(t, pc.policy()); !bytes.Equal(got, again) {
				t.Fatal("scenario is not deterministic across two executions")
			}
			path := filepath.Join("testdata", fmt.Sprintf("golden_%s.jsonl", pc.name))
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trace diverges from fixture %s:\n got %d bytes\nwant %d bytes\nfirst diff at byte %d",
					path, len(got), len(want), firstDiff(got, want))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
