package experiments

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/faults"
	"github.com/asap-project/ires/internal/trace"
)

// ckptBenchSubmitSec is the virtual time at which the urgent deadlined
// workflow arrives, well inside the long run's iterative first operator.
const ckptBenchSubmitSec = 30.0

// ckptBenchIters is the iteration count of the long PageRank operator: high
// enough that dozens of checkpoint boundaries pass under the preempt
// request, so bounded vs unbounded suspension latency is unmistakable.
const ckptBenchIters = 40

// CkptLatencyOutcome is one checkpoint mode's side of the preemption-latency
// scenario: the Deadline policy preempts a long iterative run mid-operator.
type CkptLatencyOutcome struct {
	Mode              string  `json:"mode"`
	PreemptLatencySec float64 `json:"preemptLatencySec"`
	UrgentFinishSec   float64 `json:"urgentFinishSec"`
	BatchSec          float64 `json:"batchSec"`
	Preemptions       int     `json:"preemptions"`
	Yields            int     `json:"yields"`
	Writes            int     `json:"checkpointWrites"`
	ReExecutedOps     int     `json:"reExecutedOps"`
	Deterministic     bool    `json:"deterministic"`
}

// CkptRecoveryOutcome is one recovery mode's side of the mid-operator
// node-crash scenario: the same seed runs once cleanly and once with a crash
// aimed between checkpoint boundaries; RecomputedSec is the extra operator
// virtual time the crashed run paid over the clean one.
type CkptRecoveryOutcome struct {
	Mode           string  `json:"mode"`
	CleanExecSec   float64 `json:"cleanExecSec"`
	CrashedExecSec float64 `json:"crashedExecSec"`
	RecomputedSec  float64 `json:"recomputedSec"`
	Restores       int     `json:"checkpointRestores"`
	RestoredUnits  int     `json:"restoredUnits"`
	Writes         int     `json:"checkpointWrites"`
	Deterministic  bool    `json:"deterministic"`
}

// CkptBench is the machine-readable result of the checkpointing gate
// (cell CKPT, `make bench-ckpt`). Two scenarios on the same seed:
//
//   - Latency: a long iterative workflow holds the cluster under the
//     Deadline policy when an urgent deadlined workflow arrives. Without
//     checkpointing the preempt request waits for the operator boundary
//     (unbounded — the whole remaining operator); with checkpointing the
//     attempt yields at the next checkpoint boundary, bounding the
//     suspension latency by one checkpoint interval.
//   - Recovery: a node crash lands mid-operator (placed between checkpoint
//     boundaries via faults.PlaceMidInterval). Operator-granular recovery
//     restarts the operator from unit zero; checkpointed recovery restores
//     the banked units and re-executes strictly less virtual time.
type CkptBench struct {
	Seed         int64               `json:"seed"`
	SubmitSec    float64             `json:"urgentSubmitSec"`
	IntervalSec  float64             `json:"checkpointIntervalSec"`
	CrashAtSec   float64             `json:"crashAtSec"`
	LatencyCkpt  CkptLatencyOutcome  `json:"latencyCheckpointed"`
	LatencyGran  CkptLatencyOutcome  `json:"latencyGranular"`
	RecoveryCkpt CkptRecoveryOutcome `json:"recoveryCheckpointed"`
	RecoveryGran CkptRecoveryOutcome `json:"recoveryGranular"`
}

// Gate returns an error unless every acceptance condition holds: preemption
// latency bounded by one checkpoint interval (and unbounded without
// checkpoints), strictly less re-executed virtual time after a mid-operator
// crash, zero re-executed completed operators across the preemption arc, and
// byte-identical fixed-seed traces for every scenario.
func (b *CkptBench) Gate() error {
	const eps = 1.0 // one checkpoint write + boundary rounding slack
	switch {
	case b.LatencyCkpt.Preemptions == 0 || b.LatencyGran.Preemptions == 0:
		return fmt.Errorf("Deadline policy did not preempt (ckpt=%d granular=%d preemptions) — scenario has no contention",
			b.LatencyCkpt.Preemptions, b.LatencyGran.Preemptions)
	case b.LatencyCkpt.Writes < 2 || b.IntervalSec <= 0:
		return fmt.Errorf("too few checkpoint writes (%d) to measure the interval", b.LatencyCkpt.Writes)
	case b.LatencyCkpt.Yields == 0:
		return fmt.Errorf("checkpointed run never yielded at a boundary")
	case b.LatencyCkpt.PreemptLatencySec > b.IntervalSec+eps:
		return fmt.Errorf("checkpointed preempt latency %.2fs exceeds one checkpoint interval (%.2fs)",
			b.LatencyCkpt.PreemptLatencySec, b.IntervalSec)
	case b.LatencyGran.PreemptLatencySec <= 2*b.IntervalSec:
		return fmt.Errorf("granular preempt latency %.2fs is not >> the checkpoint interval %.2fs — scenario too loose",
			b.LatencyGran.PreemptLatencySec, b.IntervalSec)
	case b.LatencyCkpt.ReExecutedOps != 0:
		return fmt.Errorf("checkpointed resume re-executed %d completed operators, want 0", b.LatencyCkpt.ReExecutedOps)
	case !b.LatencyCkpt.Deterministic || !b.LatencyGran.Deterministic:
		return fmt.Errorf("latency scenario traces differ between two fixed-seed executions (ckpt=%v granular=%v)",
			b.LatencyCkpt.Deterministic, b.LatencyGran.Deterministic)
	case b.RecoveryGran.RecomputedSec <= 0:
		return fmt.Errorf("granular crash recovery recomputed %.2fs — the crash missed the operator",
			b.RecoveryGran.RecomputedSec)
	case b.RecoveryCkpt.RecomputedSec <= 0:
		return fmt.Errorf("checkpointed crash recovery recomputed %.2fs — the crash missed the operator",
			b.RecoveryCkpt.RecomputedSec)
	case b.RecoveryCkpt.Restores == 0 || b.RecoveryCkpt.RestoredUnits == 0:
		return fmt.Errorf("checkpointed recovery never restored banked units (restores=%d units=%d)",
			b.RecoveryCkpt.Restores, b.RecoveryCkpt.RestoredUnits)
	case b.RecoveryCkpt.RecomputedSec >= b.RecoveryGran.RecomputedSec:
		return fmt.Errorf("checkpointed recovery recomputed %.1fs, not strictly less than operator-granular %.1fs",
			b.RecoveryCkpt.RecomputedSec, b.RecoveryGran.RecomputedSec)
	case !b.RecoveryCkpt.Deterministic || !b.RecoveryGran.Deterministic:
		return fmt.Errorf("recovery scenario traces differ between two fixed-seed executions (ckpt=%v granular=%v)",
			b.RecoveryCkpt.Deterministic, b.RecoveryGran.Deterministic)
	}
	return nil
}

// ckptPlatform builds a platform with a long iterative PageRank operator
// (ckptBenchIters iterations, so checkpoint boundaries are plentiful) and a
// small k-means operator, both on Spark.
func ckptPlatform(opts ires.Options) (*ires.Platform, error) {
	p, err := ires.NewPlatform(opts)
	if err != nil {
		return nil, err
	}
	p.Profiler.Factories = fastFactories(opts.Seed)
	ops := map[string]string{
		"ckpt_pagerank": "Constraints.Engine=" + ires.EngineSpark +
			"\nConstraints.OpSpecification.Algorithm.name=" + engine.AlgPagerank +
			"\nConstraints.Input0.Engine.FS=HDFS\nConstraints.Output0.Engine.FS=HDFS" +
			"\nOptimization.param.iterations=" + strconv.Itoa(ckptBenchIters) + "\n",
		"ckpt_kmeans": "Constraints.Engine=" + ires.EngineSpark +
			"\nConstraints.OpSpecification.Algorithm.name=" + engine.AlgKMeans +
			"\nConstraints.Input0.Engine.FS=HDFS\nConstraints.Output0.Engine.FS=HDFS\n",
	}
	for name, desc := range ops {
		if err := p.RegisterOperator(name, desc); err != nil {
			return nil, err
		}
		space := ires.ProfileSpace{
			Records:        []int64{10_000, 100_000, 1_000_000},
			BytesPerRecord: 1_000,
			Resources:      []engine.Resources{{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456}},
		}
		if name == "ckpt_pagerank" {
			space.Params = map[string][]float64{"iterations": {ckptBenchIters}}
		}
		if _, err := p.ProfileOperator(name, space); err != nil {
			return nil, fmt.Errorf("profiling %s: %w", name, err)
		}
	}
	return p, nil
}

// ckptWorkflow builds in -> <algo> -> out with the given input size.
func ckptWorkflow(p *ires.Platform, algo string, records int64) (*ires.Workflow, error) {
	n := strconv.FormatInt(records, 10)
	sz := strconv.FormatInt(records*1_000, 10)
	return p.NewWorkflow().
		DatasetWithMeta("in",
			"Constraints.Engine.FS=HDFS\nConstraints.type=SequenceFile\nExecution.path=hdfs:///in"+
				"\nOptimization.documents="+n+"\nOptimization.size="+sz).
		Operator("op", "Constraints.OpSpecification.Algorithm.name="+algo).
		Dataset("out").
		Chain("in", "op", "out").
		Target("out").
		Build()
}

// ckptChainWorkflow builds in -> pagerank -> mid -> kmeans -> out: the
// iterative operator a preempt request lands inside, followed by a second
// operator so an operator-granular suspension has somewhere to land at all
// (a preempted single-operator run would simply finish).
func ckptChainWorkflow(p *ires.Platform, records int64) (*ires.Workflow, error) {
	n := strconv.FormatInt(records, 10)
	sz := strconv.FormatInt(records*1_000, 10)
	return p.NewWorkflow().
		DatasetWithMeta("in",
			"Constraints.Engine.FS=HDFS\nConstraints.type=SequenceFile\nExecution.path=hdfs:///in"+
				"\nOptimization.documents="+n+"\nOptimization.size="+sz).
		Operator("opA", "Constraints.OpSpecification.Algorithm.name="+engine.AlgPagerank).
		Operator("opB", "Constraints.OpSpecification.Algorithm.name="+engine.AlgKMeans).
		Dataset("mid").
		Dataset("out").
		Chain("in", "opA", "mid", "opB", "out").
		Target("out").
		Build()
}

// ckptLatencyRun is one execution of the preemption-latency scenario.
type ckptLatencyRun struct {
	preemptLatency float64
	urgentFinish   float64
	batch          float64
	preemptions    int
	yields         int
	writes         int
	intervalSec    float64
	reExecuted     int
	traces         []byte
}

// ckptWriteInterval returns the observed checkpoint period: the smallest
// positive gap between consecutive checkpoint writes of the same step. The
// minimum (not the maximum) is the honest period — the gap spanning a
// suspension window would otherwise count the urgent run's whole execution
// as "one interval".
func ckptWriteInterval(events []trace.Event) float64 {
	last := map[string]float64{}
	best := 0.0
	for _, ev := range events {
		if ev.Type != trace.EvCheckpointWrite {
			continue
		}
		if prev, ok := last[ev.Step]; ok {
			if d := ev.VTimeSec - prev; d > 0 && (best == 0 || d < best) {
				best = d
			}
		}
		last[ev.Step] = ev.VTimeSec
	}
	return best
}

// runCkptLatencyScenario runs the long iterative workflow from t=0 under the
// Deadline policy and submits a small urgent workflow with a deadline at
// ckptBenchSubmitSec, forcing a mid-operator preempt request.
func runCkptLatencyScenario(seed int64, ckpt ires.CheckpointPolicy) (*ckptLatencyRun, error) {
	p, err := ckptPlatform(ires.Options{Seed: seed, Admission: ires.Deadline(), Checkpoint: ckpt})
	if err != nil {
		return nil, err
	}
	long, err := ckptChainWorkflow(p, 300_000)
	if err != nil {
		return nil, err
	}
	urgent, err := ckptWorkflow(p, engine.AlgKMeans, 20_000)
	if err != nil {
		return nil, err
	}
	longRun := p.SubmitWith(long, ires.SubmitOptions{Name: "long"})
	urgentCh := make(chan *ires.Run, 1)
	p.Clock.Schedule(time.Duration(ckptBenchSubmitSec*float64(time.Second)), func(time.Duration) {
		urgentCh <- p.SubmitWith(urgent, ires.SubmitOptions{
			Name: "urgent", Deadline: time.Duration((ckptBenchSubmitSec + 600) * float64(time.Second)),
		})
	})
	p.Drain()
	urgentRun := <-urgentCh

	res := &ckptLatencyRun{}
	if res.batch, res.traces, err = drained(p); err != nil {
		return nil, err
	}
	for _, s := range p.Runs() {
		switch s.ID {
		case urgentRun.ID():
			res.urgentFinish = s.FinishedSec
		case longRun.ID():
			res.preemptions = s.Preemptions
			res.preemptLatency = s.PreemptLatencySec
		}
	}
	longTrace := p.TraceForRun(longRun.ID())
	for _, ev := range longTrace {
		switch ev.Type {
		case trace.EvCheckpointWrite:
			res.writes++
		case trace.EvAttemptYield:
			res.yields++
		}
	}
	res.intervalSec = ckptWriteInterval(longTrace)
	res.reExecuted = reExecutedOps(longTrace)
	return res, nil
}

// ckptRecoveryRun is one solo execution of the crash-recovery scenario.
type ckptRecoveryRun struct {
	execSec       float64
	writes        int
	restores      int
	restoredUnits int
	firstWriteSec float64
	intervalSec   float64
	traces        []byte
}

// attemptBusySeconds sums the virtual time the cluster spent inside
// operator attempts — attempt.start to the matching finish or fail. Failed
// attempts count in full: that is precisely the work a crash throws away,
// which the StepLog (zero-duration entries for lost attempts) hides.
func attemptBusySeconds(events []trace.Event) float64 {
	started := map[string]float64{}
	busy := 0.0
	for _, ev := range events {
		if ev.Speculative {
			continue
		}
		key := fmt.Sprintf("%s#%d", ev.Step, ev.Attempt)
		switch ev.Type {
		case trace.EvAttemptStart:
			started[key] = ev.VTimeSec
		case trace.EvAttemptFinish, trace.EvAttemptFail:
			if at, ok := started[key]; ok {
				busy += ev.VTimeSec - at
				delete(started, key)
			}
		}
	}
	return busy
}

// runCkptRecoveryPass executes the single-operator iterative workflow once,
// optionally crashing node0 at crashAt (repaired 45s later, so lost work
// must be retried on the surviving nodes in the meantime).
func runCkptRecoveryPass(seed int64, ckpt ires.CheckpointPolicy, crashAt time.Duration) (*ckptRecoveryRun, error) {
	p, err := ckptPlatform(ires.Options{
		Seed:       seed,
		Retry:      ires.RetryPolicy{MaxAttempts: 4, BaseBackoff: 2 * time.Second},
		Checkpoint: ckpt,
	})
	if err != nil {
		return nil, err
	}
	wf, err := ckptWorkflow(p, engine.AlgPagerank, 300_000)
	if err != nil {
		return nil, err
	}
	plan, err := p.Plan(wf)
	if err != nil {
		return nil, err
	}
	if crashAt > 0 {
		cfg := ires.FaultConfig{
			Seed:        seed,
			NodeCrashes: []ires.NodeCrash{{Node: "node0", At: crashAt}},
		}
		if err := p.InjectFaults(cfg); err != nil {
			return nil, err
		}
		p.Clock.Schedule(crashAt+45*time.Second, func(time.Duration) {
			_ = p.RestoreNode("node0")
		})
	}
	res, err := p.Execute(wf, plan)
	if err != nil {
		return nil, fmt.Errorf("execute (crashAt=%s): %w", crashAt, err)
	}
	out := &ckptRecoveryRun{
		writes:        res.CheckpointWrites,
		restores:      res.CheckpointRestores,
		restoredUnits: res.RestoredUnits,
	}
	events := p.TraceEvents()
	out.execSec = attemptBusySeconds(events)
	for _, ev := range events {
		if ev.Type == trace.EvCheckpointWrite {
			out.firstWriteSec = ev.VTimeSec
			break
		}
	}
	out.intervalSec = ckptWriteInterval(events)
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, events); err != nil {
		return nil, err
	}
	out.traces = buf.Bytes()
	return out, nil
}

// RunCkptRecovery runs the crash-recovery comparison on one seed: a clean
// calibration pass per mode measures the baseline operator time and the
// checkpoint cadence, the crash is aimed mid-interval between the third and
// fourth checkpoint boundary, and each crashed scenario runs twice to check
// trace determinism. The returned outcomes share the crash instant, so the
// two modes face the same adversary.
func RunCkptRecovery(seed int64) (ckptOut, granOut CkptRecoveryOutcome, crashAtSec float64, err error) {
	on := ires.CheckpointPolicy{Enabled: true}
	off := ires.CheckpointPolicy{}
	cleanCkpt, err := runCkptRecoveryPass(seed, on, 0)
	if err != nil {
		return ckptOut, granOut, 0, fmt.Errorf("clean checkpointed pass: %w", err)
	}
	if cleanCkpt.writes < 5 || cleanCkpt.intervalSec <= 0 {
		return ckptOut, granOut, 0, fmt.Errorf("clean pass banked only %d checkpoints (interval %.2fs) — operator too short to aim a mid-interval crash",
			cleanCkpt.writes, cleanCkpt.intervalSec)
	}
	cleanGran, err := runCkptRecoveryPass(seed, off, 0)
	if err != nil {
		return ckptOut, granOut, 0, fmt.Errorf("clean granular pass: %w", err)
	}

	crashAt := faults.PlaceMidInterval(
		time.Duration(cleanCkpt.firstWriteSec*float64(time.Second)),
		time.Duration(cleanCkpt.intervalSec*float64(time.Second)),
		2, 0.5)

	for _, mc := range []struct {
		mode  string
		ckpt  ires.CheckpointPolicy
		clean *ckptRecoveryRun
		out   *CkptRecoveryOutcome
	}{
		{"checkpointed", on, cleanCkpt, &ckptOut},
		{"operator-granular", off, cleanGran, &granOut},
	} {
		first, deterministic, err := twice(mc.mode+" crash pass",
			func() (*ckptRecoveryRun, error) { return runCkptRecoveryPass(seed, mc.ckpt, crashAt) },
			func(r *ckptRecoveryRun) []byte { return r.traces })
		if err != nil {
			return ckptOut, granOut, 0, err
		}
		*mc.out = CkptRecoveryOutcome{
			Mode:           mc.mode,
			CleanExecSec:   mc.clean.execSec,
			CrashedExecSec: first.execSec,
			RecomputedSec:  first.execSec - mc.clean.execSec,
			Restores:       first.restores,
			RestoredUnits:  first.restoredUnits,
			Writes:         first.writes,
			Deterministic:  deterministic,
		}
	}
	return ckptOut, granOut, crashAt.Seconds(), nil
}

// RunCkptBench executes both checkpointing scenarios on one seed.
func RunCkptBench(seed int64) (*CkptBench, error) {
	bench := &CkptBench{Seed: seed, SubmitSec: ckptBenchSubmitSec}
	for _, mc := range []struct {
		mode string
		ckpt ires.CheckpointPolicy
		out  *CkptLatencyOutcome
	}{
		{"checkpointed", ires.CheckpointPolicy{Enabled: true}, &bench.LatencyCkpt},
		{"operator-granular", ires.CheckpointPolicy{}, &bench.LatencyGran},
	} {
		first, deterministic, err := twice(mc.mode+" latency scenario",
			func() (*ckptLatencyRun, error) { return runCkptLatencyScenario(seed, mc.ckpt) },
			func(r *ckptLatencyRun) []byte { return r.traces })
		if err != nil {
			return nil, err
		}
		*mc.out = CkptLatencyOutcome{
			Mode:              mc.mode,
			PreemptLatencySec: first.preemptLatency,
			UrgentFinishSec:   first.urgentFinish,
			BatchSec:          first.batch,
			Preemptions:       first.preemptions,
			Yields:            first.yields,
			Writes:            first.writes,
			ReExecutedOps:     first.reExecuted,
			Deterministic:     deterministic,
		}
		if mc.mode == "checkpointed" {
			bench.IntervalSec = first.intervalSec
		}
	}

	ckptOut, granOut, crashAtSec, err := RunCkptRecovery(seed)
	if err != nil {
		return nil, err
	}
	bench.RecoveryCkpt = ckptOut
	bench.RecoveryGran = granOut
	bench.CrashAtSec = crashAtSec
	return bench, nil
}

// Report renders the benchmark as an ires-bench report.
func (b *CkptBench) Report() *Report {
	r := &Report{
		ID:    "CKPT",
		Title: "Sub-operator checkpointing: bounded preemption latency and crash recovery",
	}
	lat := Table{
		Title: fmt.Sprintf("urgent deadlined workflow at t=%.0fs preempts a %d-iteration PageRank (checkpoint interval %.1fs)",
			b.SubmitSec, ckptBenchIters, b.IntervalSec),
		Header: []string{"mode", "preempt lat (s)", "urgent finish (s)", "yields", "ckpt writes", "re-executed ops", "deterministic"},
	}
	for _, o := range []CkptLatencyOutcome{b.LatencyCkpt, b.LatencyGran} {
		lat.Rows = append(lat.Rows, []string{
			o.Mode,
			fmt.Sprintf("%.2f", o.PreemptLatencySec),
			fmt.Sprintf("%.1f", o.UrgentFinishSec),
			fmt.Sprintf("%d", o.Yields),
			fmt.Sprintf("%d", o.Writes),
			fmt.Sprintf("%d", o.ReExecutedOps),
			fmt.Sprintf("%v", o.Deterministic),
		})
	}
	r.Tables = append(r.Tables, lat, ckptRecoveryTable(b.RecoveryCkpt, b.RecoveryGran, b.CrashAtSec))
	if b.Gate() == nil {
		r.Note("checkpointing bounds the preempt latency to %.2fs (one %.1fs interval; %.2fs unbounded) and cuts crash re-execution from %.1fs to %.1fs virtual-seconds on the same crash",
			b.LatencyCkpt.PreemptLatencySec, b.IntervalSec, b.LatencyGran.PreemptLatencySec,
			b.RecoveryGran.RecomputedSec, b.RecoveryCkpt.RecomputedSec)
	}
	return r
}

// ckptRecoveryTable renders the recovery comparison (shared with the
// FAULTSWEEP report).
func ckptRecoveryTable(ckpt, gran CkptRecoveryOutcome, crashAtSec float64) Table {
	t := Table{
		Title:  fmt.Sprintf("node0 crashes mid-operator at t=%.1fs (repaired 45s later)", crashAtSec),
		Header: []string{"recovery", "clean exec (s)", "crashed exec (s)", "recomputed (s)", "restores", "restored units", "deterministic"},
	}
	for _, o := range []CkptRecoveryOutcome{gran, ckpt} {
		t.Rows = append(t.Rows, []string{
			o.Mode,
			fmt.Sprintf("%.1f", o.CleanExecSec),
			fmt.Sprintf("%.1f", o.CrashedExecSec),
			fmt.Sprintf("%.1f", o.RecomputedSec),
			fmt.Sprintf("%d", o.Restores),
			fmt.Sprintf("%d", o.RestoredUnits),
			fmt.Sprintf("%v", o.Deterministic),
		})
	}
	return t
}
