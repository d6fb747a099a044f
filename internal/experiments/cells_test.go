package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrackedBaselines regenerates the four machine-independent baselines
// (virtual-time facts, trace byte counts and seeded estimation errors only) and
// compares them with the committed files byte for byte, gates included: a
// change that moves a trace byte or a prediction fails here, not only in CI's
// `git diff --exit-code` after bench-smoke.
func TestTrackedBaselines(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Cells {
		if seen[c.ID] {
			t.Errorf("cell id %s appears twice", c.ID)
		}
		seen[c.ID] = true
	}
	checked := 0
	for _, c := range Cells {
		switch c.File {
		case "BENCH_SCHED.json", "BENCH_CKPT.json", "BENCH_DRF.json", "BENCH_PREQ.json":
		default:
			continue
		}
		checked++
		t.Run(c.ID, func(t *testing.T) {
			_, res, err := c.Run(Params{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Gate(); err != nil {
				t.Errorf("gate: %v", err)
			}
			var got bytes.Buffer
			if err := WriteBaseline(&got, res); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", c.File))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from the committed baseline:\n%s", c.File, got.Bytes())
			}
		})
	}
	if checked != 4 {
		t.Errorf("checked %d machine-independent baselines, want 4", checked)
	}
}

// The BENCH_*.json files at the repo root are exactly the files the cell
// table writes: a baseline no cell regenerates, or a cell whose baseline was
// never committed, fails by name.
func TestBaselineFilesMatchCells(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, p := range paths {
		onDisk[filepath.Base(p)] = true
	}
	for _, c := range Cells {
		if c.File == "" {
			continue
		}
		if !onDisk[c.File] {
			t.Errorf("cell %s writes %s, which is not committed at the repo root", c.ID, c.File)
		}
		delete(onDisk, c.File)
	}
	for f := range onDisk {
		t.Errorf("%s is written by no cell of Cells", f)
	}
}

// gateBreak breaks one clause of a passing result; want is a piece of the
// error that names the clause.
type gateBreak[T any] struct {
	want    string
	breakIt func(T)
}

// checkGate starts every case from the committed baseline (which must pass
// its own gate and render a report), breaks one clause and expects the gate
// to name it.
func checkGate[T interface {
	Tracked
	Report() *Report
}](t *testing.T, file string, fresh func() T, cases []gateBreak[T]) {
	t.Helper()
	load := func() T {
		data, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		res := fresh()
		if err := json.Unmarshal(data, res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	pass := load()
	if err := pass.Gate(); err != nil {
		t.Fatalf("committed %s fails its gate: %v", file, err)
	}
	if r := pass.Report(); r.ID == "" || len(r.Tables) == 0 || !strings.Contains(r.Render(), r.ID) {
		t.Errorf("%s: report carries no table: %+v", file, r)
	}
	for _, c := range cases {
		res := load()
		c.breakIt(res)
		if err := res.Gate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: broken clause %q: gate returned %v", file, c.want, err)
		}
	}
}

func TestSchedDeadlineGate(t *testing.T) {
	checkGate(t, "BENCH_SCHED.json", func() *SchedDeadlineBench { return &SchedDeadlineBench{} }, []gateBreak[*SchedDeadlineBench]{
		{"FIFO met", func(b *SchedDeadlineBench) { b.FIFO.MeetsDeadline = true }},
		{"Deadline policy missed", func(b *SchedDeadlineBench) { b.EDF.MeetsDeadline = false }},
		{"without preempting", func(b *SchedDeadlineBench) { b.EDF.Preemptions = 0 }},
		{"re-executed 2 completed operators", func(b *SchedDeadlineBench) { b.EDF.ReExecutedOps = 2 }},
		{"FIFO per-run traces differ", func(b *SchedDeadlineBench) { b.FIFO.Deterministic = false }},
		{"Deadline per-run traces differ", func(b *SchedDeadlineBench) { b.EDF.Deterministic = false }},
	})
}

func TestCkptGate(t *testing.T) {
	checkGate(t, "BENCH_CKPT.json", func() *CkptBench { return &CkptBench{} }, []gateBreak[*CkptBench]{
		{"did not preempt", func(b *CkptBench) { b.LatencyCkpt.Preemptions = 0 }},
		{"did not preempt", func(b *CkptBench) { b.LatencyGran.Preemptions = 0 }},
		{"too few checkpoint writes", func(b *CkptBench) { b.LatencyCkpt.Writes = 1 }},
		{"too few checkpoint writes", func(b *CkptBench) { b.IntervalSec = 0 }},
		{"never yielded", func(b *CkptBench) { b.LatencyCkpt.Yields = 0 }},
		{"exceeds one checkpoint interval", func(b *CkptBench) { b.LatencyCkpt.PreemptLatencySec = b.IntervalSec + 1.5 }},
		{"is not >> the checkpoint interval", func(b *CkptBench) { b.LatencyGran.PreemptLatencySec = 2 * b.IntervalSec }},
		{"re-executed 1 completed operators", func(b *CkptBench) { b.LatencyCkpt.ReExecutedOps = 1 }},
		{"latency scenario traces differ", func(b *CkptBench) { b.LatencyCkpt.Deterministic = false }},
		{"latency scenario traces differ", func(b *CkptBench) { b.LatencyGran.Deterministic = false }},
		{"granular crash recovery recomputed", func(b *CkptBench) { b.RecoveryGran.RecomputedSec = 0 }},
		{"checkpointed crash recovery recomputed", func(b *CkptBench) { b.RecoveryCkpt.RecomputedSec = 0 }},
		{"never restored banked units", func(b *CkptBench) { b.RecoveryCkpt.Restores = 0 }},
		{"never restored banked units", func(b *CkptBench) { b.RecoveryCkpt.RestoredUnits = 0 }},
		{"not strictly less", func(b *CkptBench) { b.RecoveryCkpt.RecomputedSec = b.RecoveryGran.RecomputedSec }},
		{"recovery scenario traces differ", func(b *CkptBench) { b.RecoveryCkpt.Deterministic = false }},
		{"recovery scenario traces differ", func(b *CkptBench) { b.RecoveryGran.Deterministic = false }},
	})
}

func TestDRFGate(t *testing.T) {
	checkGate(t, "BENCH_DRF.json", func() *DRFBench { return &DRFBench{} }, []gateBreak[*DRFBench]{
		{"DRF dominant shares spread", func(b *DRFBench) { b.DRF.Spread = 0.11 }},
		{"no starvation", func(b *DRFBench) { b.FIFO.MinMaxRatio = 0.5 }},
		{"fairness traces differ", func(b *DRFBench) { b.DRF.Deterministic = false }},
		{"fairness traces differ", func(b *DRFBench) { b.FIFO.Deterministic = false }},
		{"injected no OOM kills", func(b *DRFBench) { b.Overcommit.OOMKills = 0 }},
		{"no restores", func(b *DRFBench) { b.Overcommit.Restores = 0 }},
		{"re-executed 3 completed operators", func(b *DRFBench) { b.Overcommit.ReExecutedOps = 3 }},
		{"oversubscription traces differ", func(b *DRFBench) { b.Overcommit.Deterministic = false }},
	})
}

func TestPreqGate(t *testing.T) {
	stream := func(b *PreqBench, name string) *PreqStream {
		for i := range b.Streams {
			if b.Streams[i].Name == name {
				return &b.Streams[i]
			}
		}
		t.Fatalf("no stream %s", name)
		return nil
	}
	// raise lifts one quarter's error just above its yardstick.
	raise := func(name string, target, q int) func(*PreqBench) {
		return func(b *PreqBench) {
			s := stream(b, name)
			s.Targets[target].Quarters[q].Err = preqBounds[name+"/"+s.Targets[target].Target][q] + 0.0001
		}
	}
	checkGate(t, "BENCH_PREQ.json", func() *PreqBench { return &PreqBench{} }, []gateBreak[*PreqBench]{
		{"text/execTime quarter 4: error", raise("text", 0, 3)},
		{"chains/execTime quarter 1: error", raise("chains", 0, 0)},
		{"faults/outputRecords quarter 2: error", raise("faults", 1, 1)},
		{"drift/outputBytes quarter 3: error", raise("drift", 2, 2)},
		{"drift re-converges", func(b *PreqBench) { stream(b, "drift").Reconverge.Mean = preqReconvergeBound + 0.1 }},
		{"no yardstick", func(b *PreqBench) { stream(b, "text").Targets[0].Target = "cost" }},
		{"no yardstick", func(b *PreqBench) { stream(b, "text").Targets[0].Quarters = nil }},
		{"11 of 12 stream/target errors", func(b *PreqBench) { s := stream(b, "chains"); s.Targets = s.Targets[1:] }},
		{"drift re-convergence measured: false", func(b *PreqBench) { stream(b, "drift").Reconverge = nil }},
	})
}

func TestSchedScaleGate(t *testing.T) {
	deepest := func(b *SchedScaleBench) *SchedScalePoint {
		pts := b.Policies[len(b.Policies)-1].Points
		return &pts[len(pts)-1]
	}
	checkGate(t, "BENCH_SCHED_SCALE.json", func() *SchedScaleBench { return &SchedScaleBench{} }, []gateBreak[*SchedScaleBench]{
		{"no policies measured", func(b *SchedScaleBench) { b.Policies = nil }},
		{"need at least two depths", func(b *SchedScaleBench) { b.Policies[0].Points = b.Policies[0].Points[:1] }},
		{"decisions/s at depth", func(b *SchedScaleBench) {
			deepest(b).DecisionsPerSec = b.Policies[len(b.Policies)-1].Points[0].DecisionsPerSec/2 - 1
		}},
		{"allocs/decision at depth", func(b *SchedScaleBench) {
			deepest(b).AllocsPerDecision = b.Policies[len(b.Policies)-1].Points[0].AllocsPerDecision + 5
		}},
	})
}

func TestPlannerGate(t *testing.T) {
	checkGate(t, "BENCH_PLANNER.json", func() *PlannerBenchReport { return &PlannerBenchReport{} }, []gateBreak[*PlannerBenchReport]{
		{"a warm replan does neither", func(r *PlannerBenchReport) { r.WarmReplanMisses = 1 }},
		{"a warm replan does neither", func(r *PlannerBenchReport) { r.WarmReplanRows = 1 }},
		{"below the 1.5x floor", func(r *PlannerBenchReport) { r.ReplanSpeedup = 1.49 }},
		{"below the 50% floor", func(r *PlannerBenchReport) { r.AllocReduction = 0.49 }},
		{"warm plans diverged", func(r *PlannerBenchReport) { r.WarmIdentical = false }},
		{"beyond the flap scope", func(r *PlannerBenchReport) { r.Giant.FlapMisses = uint64(r.Giant.FlapScope) + 1 }},
		{"above the 1.5x ceiling", func(r *PlannerBenchReport) { r.Giant.PartialOverWarm = 1.51 }},
		{"flap replans diverged", func(r *PlannerBenchReport) { r.Giant.FlapIdentical = false }},
	})
}

func TestSelect(t *testing.T) {
	got, err := Select("fig11, ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "FIG11" || got[1].ID != "CKPT" {
		t.Errorf("Select(\"fig11, ckpt\") = %v, want FIG11 then CKPT", cellIDs(got))
	}
	if all, err := Select(""); err != nil || len(all) != len(Cells) {
		t.Errorf("Select(\"\") = %v, %v; want every cell", cellIDs(all), err)
	}
	_, err = Select("FIG11,TYPO")
	if err == nil {
		t.Fatal("Select accepted an unknown id")
	}
	for _, c := range Cells {
		if !strings.Contains(err.Error(), c.ID) {
			t.Errorf("error for an unknown id does not list %s: %v", c.ID, err)
		}
	}
}

// stubResult is a tracked result whose gate fails on demand.
type stubResult struct {
	Value int `json:"value"`
	gate  error
}

func (s *stubResult) Gate() error { return s.gate }

// A failed gate is RunCell's error, but only after the report is rendered
// and the baseline written, so the failing result can be inspected.
func TestRunCellGateFailure(t *testing.T) {
	gateErr := errors.New("clause seven does not hold")
	cell := Cell{ID: "STUB", File: "BENCH_STUB.json", Run: func(p Params) ([]*Report, Tracked, error) {
		r := &Report{ID: "STUB", Title: "stub"}
		r.Note("seed %d", p.Seed)
		return []*Report{r}, &stubResult{Value: 7, gate: gateErr}, nil
	}}
	dir := t.TempDir()
	var out bytes.Buffer
	err := RunCell(&out, cell, Params{Seed: 9}, dir)
	if !errors.Is(err, gateErr) || !strings.Contains(err.Error(), "STUB") {
		t.Errorf("RunCell returned %v, want the STUB gate's error", err)
	}
	if !strings.Contains(out.String(), "note: seed 9") {
		t.Errorf("report not rendered before the gate failed:\n%s", out.String())
	}
	data, rerr := os.ReadFile(filepath.Join(dir, "BENCH_STUB.json"))
	if rerr != nil || string(data) != "{\n  \"value\": 7\n}\n" {
		t.Errorf("baseline not written before the gate failed: %q, %v", data, rerr)
	}

	// No -out directory: nothing is written; a failed run is an error too.
	if err := RunCell(&out, cell, Params{}, ""); !errors.Is(err, gateErr) {
		t.Errorf("RunCell without an output directory returned %v", err)
	}
	cell.Run = func(Params) ([]*Report, Tracked, error) { return nil, nil, fmt.Errorf("scenario broke") }
	if err := RunCell(&out, cell, Params{}, dir); err == nil || !strings.Contains(err.Error(), "STUB: scenario broke") {
		t.Errorf("RunCell on a failed run returned %v", err)
	}
}
