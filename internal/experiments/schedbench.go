package experiments

import (
	"fmt"
	"math"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/trace"
)

// schedBenchSubmitSec is the virtual time at which the urgent workflow
// arrives, well inside the long run's first operator.
const schedBenchSubmitSec = 20.0

// SchedPolicyOutcome is one admission policy's side of the deadline
// benchmark.
type SchedPolicyOutcome struct {
	Policy          string  `json:"policy"`
	UrgentFinishSec float64 `json:"urgentFinishSec"`
	BatchSec        float64 `json:"batchSec"`
	MeetsDeadline   bool    `json:"meetsDeadline"`
	Preemptions     int     `json:"preemptions"`
	SuspendedSec    float64 `json:"suspendedSec"`
	ReExecutedOps   int     `json:"reExecutedOps"`
	TraceBytes      int     `json:"traceBytes"`
	Deterministic   bool    `json:"deterministic"`
}

// SchedDeadlineBench is the machine-readable result of the scheduling gate
// (cell SCHEDDL, `make bench-sched`). The scenario: a long text workflow
// holds the whole cluster when a small urgent workflow with a deadline
// arrives. FIFO makes the urgent run wait out the long one and misses the
// deadline; the Deadline (EDF) policy preempts the long run at its next
// operator boundary, runs the urgent workflow to completion, then resumes
// the long run from its materialized intermediates without re-executing any
// completed operator.
type SchedDeadlineBench struct {
	Seed        int64              `json:"seed"`
	SubmitSec   float64            `json:"urgentSubmitSec"`
	DeadlineSec float64            `json:"deadlineSec"`
	FIFO        SchedPolicyOutcome `json:"fifo"`
	EDF         SchedPolicyOutcome `json:"deadline"`
}

// Gate returns an error unless every acceptance condition of the benchmark
// holds: the deadline discriminates the policies (EDF meets it, FIFO
// misses), preemption actually happened and resumed without re-running
// completed operators, and both policies produced byte-identical per-run
// traces across two executions.
func (b *SchedDeadlineBench) Gate() error {
	switch {
	case b.FIFO.MeetsDeadline:
		return fmt.Errorf("FIFO met the %.0fs deadline (urgent finished %.1fs) — scenario has no contention", b.DeadlineSec, b.FIFO.UrgentFinishSec)
	case !b.EDF.MeetsDeadline:
		return fmt.Errorf("Deadline policy missed the %.0fs deadline (urgent finished %.1fs)", b.DeadlineSec, b.EDF.UrgentFinishSec)
	case b.EDF.Preemptions == 0:
		return fmt.Errorf("Deadline policy met the deadline without preempting — scenario too loose")
	case b.EDF.ReExecutedOps != 0:
		return fmt.Errorf("resume re-executed %d completed operators, want 0", b.EDF.ReExecutedOps)
	case !b.FIFO.Deterministic:
		return fmt.Errorf("FIFO per-run traces differ between two fixed-seed executions")
	case !b.EDF.Deterministic:
		return fmt.Errorf("Deadline per-run traces differ between two fixed-seed executions")
	}
	return nil
}

// RunSchedDeadlineBench executes the benchmark. The deadline is not a magic
// number: a calibration pass first measures the urgent run's finish time
// under both policies (the finish times do not depend on the deadline value —
// any finite deadline outranks the long run's infinite one, and the victim
// carries no deadline of its own), then the official deadline is set halfway
// between the two. Both policies then run the official scenario twice to
// check per-run trace determinism.
func RunSchedDeadlineBench(seed int64) (*SchedDeadlineBench, error) {
	// Calibration: any finite deadline works, it only has to exist.
	provisional := schedBenchSubmitSec + 1
	edfCal, err := runSchedDeadlineScenario(seed, ires.Deadline(), provisional)
	if err != nil {
		return nil, fmt.Errorf("calibrating Deadline policy: %w", err)
	}
	fifoCal, err := runSchedDeadlineScenario(seed, ires.FIFO(), provisional)
	if err != nil {
		return nil, fmt.Errorf("calibrating FIFO: %w", err)
	}
	if edfCal.urgentFinish >= fifoCal.urgentFinish {
		return nil, fmt.Errorf("preemption bought nothing: urgent finished at %.1fs under Deadline vs %.1fs under FIFO",
			edfCal.urgentFinish, fifoCal.urgentFinish)
	}
	deadline := math.Round((edfCal.urgentFinish + fifoCal.urgentFinish) / 2)

	bench := &SchedDeadlineBench{Seed: seed, SubmitSec: schedBenchSubmitSec, DeadlineSec: deadline}
	for _, pc := range []struct {
		label string
		adm   func() ires.AdmissionPolicy
		out   *SchedPolicyOutcome
	}{
		{"FIFO", func() ires.AdmissionPolicy { return ires.FIFO() }, &bench.FIFO},
		{"Deadline", func() ires.AdmissionPolicy { return ires.Deadline() }, &bench.EDF},
	} {
		first, deterministic, err := twice(pc.label,
			func() (*schedScenarioResult, error) { return runSchedDeadlineScenario(seed, pc.adm(), deadline) },
			func(r *schedScenarioResult) []byte { return r.traces })
		if err != nil {
			return nil, err
		}
		*pc.out = SchedPolicyOutcome{
			Policy:          pc.label,
			UrgentFinishSec: first.urgentFinish,
			BatchSec:        first.batch,
			MeetsDeadline:   first.urgentFinish <= deadline,
			Preemptions:     first.preemptions,
			SuspendedSec:    first.suspendedSec,
			ReExecutedOps:   first.reExecuted,
			TraceBytes:      len(first.traces),
			Deterministic:   deterministic,
		}
	}
	return bench, nil
}

// schedScenarioResult is one execution of the contention scenario.
type schedScenarioResult struct {
	urgentFinish float64
	batch        float64
	preemptions  int
	suspendedSec float64
	reExecuted   int
	traces       []byte // per-run JSONL traces, concatenated in run order
}

// runSchedDeadlineScenario runs the long workflow from t=0 and submits the
// urgent one (with the given absolute deadline) at schedBenchSubmitSec on a
// fresh platform under the given admission policy.
func runSchedDeadlineScenario(seed int64, adm ires.AdmissionPolicy, deadlineSec float64) (*schedScenarioResult, error) {
	p, err := ires.NewPlatform(ires.Options{Seed: seed, Admission: adm})
	if err != nil {
		return nil, err
	}
	if err := profileTextOps(p, seed); err != nil {
		return nil, err
	}
	long, err := TextWorkflow(p, 150_000)
	if err != nil {
		return nil, err
	}
	urgent, err := TextWorkflow(p, 20_000)
	if err != nil {
		return nil, err
	}
	longRun := p.SubmitWith(long, ires.SubmitOptions{Name: "long"})
	urgentCh := make(chan *ires.Run, 1)
	p.Clock.Schedule(time.Duration(schedBenchSubmitSec*float64(time.Second)), func(time.Duration) {
		urgentCh <- p.SubmitWith(urgent, ires.SubmitOptions{Name: "urgent", Deadline: time.Duration(deadlineSec * float64(time.Second))})
	})
	p.Drain()
	urgentRun := <-urgentCh

	res := &schedScenarioResult{}
	if res.batch, res.traces, err = drained(p); err != nil {
		return nil, err
	}
	for _, s := range p.Runs() {
		switch s.ID {
		case urgentRun.ID():
			res.urgentFinish = s.FinishedSec
		case longRun.ID():
			res.preemptions = s.Preemptions
			res.suspendedSec = s.SuspendedSec
		}
	}
	res.reExecuted = reExecutedOps(p.TraceForRun(longRun.ID()))
	return res, nil
}

// reExecutedOps counts operators that completed more than once in a run's
// trace — the resume-from-done-set contract says none should: the replanned
// remainder must start from the materialized intermediates, not from
// scratch. Speculative backup copies are not re-executions.
func reExecutedOps(events []trace.Event) int {
	finishes := map[string]int{}
	for _, ev := range events {
		if ev.Type == trace.EvAttemptFinish && !ev.Speculative {
			finishes[ev.Step]++
		}
	}
	re := 0
	for _, n := range finishes {
		if n > 1 {
			re += n - 1
		}
	}
	return re
}

// Report renders the benchmark as an ires-bench report table.
func (b *SchedDeadlineBench) Report() *Report {
	r := &Report{
		ID:    "SCHEDDL",
		Title: "Deadline scheduling: EDF preemption vs FIFO on a contended cluster",
	}
	table := Table{
		Title: fmt.Sprintf("urgent workflow submitted at t=%.0fs with deadline %.0fs (long workflow holds the cluster)",
			b.SubmitSec, b.DeadlineSec),
		Header: []string{"policy", "urgent finish (s)", "deadline met", "batch (s)", "preemptions", "suspended (s)", "re-executed ops", "trace deterministic"},
	}
	for _, o := range []SchedPolicyOutcome{b.FIFO, b.EDF} {
		table.Rows = append(table.Rows, []string{
			o.Policy,
			fmt.Sprintf("%.1f", o.UrgentFinishSec),
			fmt.Sprintf("%v", o.MeetsDeadline),
			fmt.Sprintf("%.1f", o.BatchSec),
			fmt.Sprintf("%d", o.Preemptions),
			fmt.Sprintf("%.1f", o.SuspendedSec),
			fmt.Sprintf("%d", o.ReExecutedOps),
			fmt.Sprintf("%v", o.Deterministic),
		})
	}
	r.Tables = append(r.Tables, table)
	if b.Gate() == nil {
		r.Note("Deadline meets the %.0fs deadline FIFO misses (%.1fs vs %.1fs urgent finish); the preempted run resumed from its done set with zero re-executed operators.",
			b.DeadlineSec, b.EDF.UrgentFinishSec, b.FIFO.UrgentFinishSec)
	}
	return r
}
