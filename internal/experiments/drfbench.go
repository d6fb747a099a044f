package experiments

import (
	"fmt"
	"math"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/trace"
)

// drfBenchWindowSec is the sampling window for dominant shares. It is
// deliberately shorter than any single run: the starvation signal lives in
// the early concurrent window — over a full horizon even FIFO eventually
// runs everyone and the averages converge.
const drfBenchWindowSec = 30

// DRFTenantShare is one tenant's time-averaged dominant share over the
// sampling window.
type DRFTenantShare struct {
	Tenant           string  `json:"tenant"`
	AvgDominantShare float64 `json:"avgDominantShare"`
}

// DRFFairnessOutcome is one policy's side of the two-tenant fairness
// scenario: a cores-heavy tenant (full-core, tiny-memory slices) and a
// memory-heavy tenant (single-core, near-full-memory slices) submit
// identical workloads at t=0.
type DRFFairnessOutcome struct {
	Policy        string           `json:"policy"`
	Shares        []DRFTenantShare `json:"shares"`
	Spread        float64          `json:"spread"`      // |a-b| / max(a,b)
	MinMaxRatio   float64          `json:"minMaxRatio"` // min share / max share
	BatchSec      float64          `json:"batchSec"`
	TraceBytes    int              `json:"traceBytes"`
	Deterministic bool             `json:"deterministic"`
}

// DRFOvercommitOutcome is the oversubscription scenario: two tenants whose
// slice demands fit under the overcommitted memory cap but exceed physical
// memory once both allocate, with an always-fire OOM killer and durable
// checkpointing.
type DRFOvercommitOutcome struct {
	OOMKills      int     `json:"oomKills"`
	Restores      int     `json:"checkpointRestores"`
	ReExecutedOps int     `json:"reExecutedOps"`
	BatchSec      float64 `json:"batchSec"`
	TraceBytes    int     `json:"traceBytes"`
	Deterministic bool    `json:"deterministic"`
}

// DRFBench is the machine-readable result of the DRF gate (cell DRF,
// `make bench-drf`): Dominant Resource Fairness must equalize the two
// tenants' dominant shares in the early window where FIFO starves one of
// them, and the oversubscribed workload must complete through the
// OOM-kill -> retry/checkpoint-restore loop with byte-identical fixed-seed
// traces.
type DRFBench struct {
	Seed       int64                `json:"seed"`
	WindowSec  float64              `json:"windowSec"`
	DRF        DRFFairnessOutcome   `json:"drf"`
	FIFO       DRFFairnessOutcome   `json:"fifo"`
	Overcommit DRFOvercommitOutcome `json:"overcommit"`
}

// Gate returns an error unless every acceptance condition holds.
func (b *DRFBench) Gate() error {
	switch {
	case b.DRF.Spread > 0.10:
		return fmt.Errorf("DRF dominant shares spread %.2f, want <= 0.10 (shares %+v)", b.DRF.Spread, b.DRF.Shares)
	case b.FIFO.MinMaxRatio >= 0.5:
		return fmt.Errorf("FIFO min/max share ratio %.2f, want < 0.5 — no starvation, scenario has no contention", b.FIFO.MinMaxRatio)
	case !b.DRF.Deterministic || !b.FIFO.Deterministic:
		return fmt.Errorf("fairness traces differ between two fixed-seed executions (drf=%v fifo=%v)",
			b.DRF.Deterministic, b.FIFO.Deterministic)
	case b.Overcommit.OOMKills == 0:
		return fmt.Errorf("oversubscription scenario injected no OOM kills")
	case b.Overcommit.Restores == 0:
		return fmt.Errorf("OOM kills never hit a checkpointed operator (no restores)")
	case b.Overcommit.ReExecutedOps != 0:
		return fmt.Errorf("OOM recovery re-executed %d completed operators, want 0", b.Overcommit.ReExecutedOps)
	case !b.Overcommit.Deterministic:
		return fmt.Errorf("oversubscription traces differ between two fixed-seed executions")
	}
	return nil
}

// Report renders the benchmark as an ires-bench report.
func (b *DRFBench) Report() *Report {
	r := &Report{ID: "DRF", Title: "Dominant Resource Fairness: dominant shares under contention, recovery under memory overcommit"}
	fair := Table{
		Title:  fmt.Sprintf("time-averaged dominant shares over the first %.0fs (cores-heavy vs memory-heavy tenant)", b.WindowSec),
		Header: []string{"policy"},
	}
	for _, s := range b.DRF.Shares {
		fair.Header = append(fair.Header, s.Tenant)
	}
	fair.Header = append(fair.Header, "spread", "min/max", "batch (s)", "deterministic")
	for _, o := range []DRFFairnessOutcome{b.DRF, b.FIFO} {
		row := []string{o.Policy}
		for _, s := range o.Shares {
			row = append(row, fmt.Sprintf("%.3f", s.AvgDominantShare))
		}
		fair.Rows = append(fair.Rows, append(row,
			fmt.Sprintf("%.2f", o.Spread),
			fmt.Sprintf("%.2f", o.MinMaxRatio),
			fmt.Sprintf("%.1f", o.BatchSec),
			fmt.Sprintf("%v", o.Deterministic)))
	}
	oc := b.Overcommit
	over := Table{
		Title:  "1.5x memory overcommit under an always-fire OOM killer, durable checkpoints",
		Header: []string{"oom kills", "ckpt restores", "re-executed ops", "batch (s)", "deterministic"},
		Rows: [][]string{{
			fmt.Sprintf("%d", oc.OOMKills),
			fmt.Sprintf("%d", oc.Restores),
			fmt.Sprintf("%d", oc.ReExecutedOps),
			fmt.Sprintf("%.1f", oc.BatchSec),
			fmt.Sprintf("%v", oc.Deterministic),
		}},
	}
	r.Tables = append(r.Tables, fair, over)
	if b.Gate() == nil {
		r.Note("DRF equalizes the two tenants' dominant shares (spread %.2f) where FIFO starves one (min/max %.2f); the oversubscribed batch finished through %d OOM kills with zero re-executed operators",
			b.DRF.Spread, b.FIFO.MinMaxRatio, oc.OOMKills)
	}
	return r
}

// RunDRFBench executes both scenarios, each twice per policy for the
// determinism check.
func RunDRFBench(seed int64) (*DRFBench, error) {
	bench := &DRFBench{Seed: seed, WindowSec: drfBenchWindowSec}
	for _, pc := range []struct {
		label string
		adm   func() ires.AdmissionPolicy
		out   *DRFFairnessOutcome
	}{
		{"DRF", func() ires.AdmissionPolicy { return ires.DRF(nil, 4) }, &bench.DRF},
		{"FIFO", func() ires.AdmissionPolicy { return ires.FIFO() }, &bench.FIFO},
	} {
		first, deterministic, err := twice(pc.label,
			func() (*drfFairnessResult, error) { return runDRFFairnessScenario(seed, pc.adm()) },
			func(r *drfFairnessResult) []byte { return r.traces })
		if err != nil {
			return nil, err
		}
		*pc.out = first.DRFFairnessOutcome
		pc.out.Policy = pc.label
		pc.out.Deterministic = deterministic
		pc.out.TraceBytes = len(first.traces)
	}

	first, deterministic, err := twice("overcommit",
		func() (*drfOvercommitResult, error) { return runDRFOvercommitScenario(seed) },
		func(r *drfOvercommitResult) []byte { return r.traces })
	if err != nil {
		return nil, err
	}
	bench.Overcommit = first.DRFOvercommitOutcome
	bench.Overcommit.Deterministic = deterministic
	bench.Overcommit.TraceBytes = len(first.traces)
	return bench, nil
}

// drfFairnessResult carries one execution's outcome plus its trace bytes.
type drfFairnessResult struct {
	DRFFairnessOutcome
	traces []byte
}

// runDRFFairnessScenario submits three cores-heavy and three memory-heavy
// runs at t=0 under the given policy and samples per-tenant dominant shares
// once per virtual second across the window.
func runDRFFairnessScenario(seed int64, adm ires.AdmissionPolicy) (*drfFairnessResult, error) {
	p, err := ckptPlatform(ires.Options{Seed: seed, Admission: adm})
	if err != nil {
		return nil, err
	}
	totalCores, totalMem := p.Cluster.Capacity()

	// Cores-heavy: both node cores, 1/13.5 of node memory. Memory-heavy:
	// one core, full node memory. One of each co-locates on a node; two of
	// the same tenant never do — the same structural mix as the paper's
	// DRF motivating example.
	demands := []struct {
		tenant     string
		cores, mem int
	}{
		{"compute", 2, 256},
		{"etl", 1, 3456},
	}
	for i := 0; i < 6; i++ {
		d := demands[i%2]
		wf, err := ckptChainWorkflow(p, 150_000)
		if err != nil {
			return nil, err
		}
		p.SubmitWith(wf, ires.SubmitOptions{
			Name:   fmt.Sprintf("%s-%d", d.tenant, i/2),
			Tenant: d.tenant, DemandCores: d.cores, DemandMemMB: d.mem,
		})
	}

	// Sample dominant shares each virtual second; the callbacks only read
	// snapshots, so they perturb nothing.
	sums := map[string]float64{}
	for s := 1; s <= drfBenchWindowSec; s++ {
		p.Clock.Schedule(time.Duration(s)*time.Second, func(time.Duration) {
			cores := map[string]int{}
			mem := map[string]int{}
			for _, snap := range p.Runs() {
				if snap.Status != "running" {
					continue
				}
				cores[snap.Tenant] += snap.LeasedCores
				mem[snap.Tenant] += snap.LeasedMemMB
			}
			for _, d := range demands {
				cs := float64(cores[d.tenant]) / float64(totalCores)
				ms := float64(mem[d.tenant]) / float64(totalMem)
				sums[d.tenant] += math.Max(cs, ms)
			}
		})
	}
	p.Drain()

	res := &drfFairnessResult{}
	if res.BatchSec, res.traces, err = drained(p); err != nil {
		return nil, err
	}

	a := sums["compute"] / drfBenchWindowSec
	b := sums["etl"] / drfBenchWindowSec
	res.Shares = []DRFTenantShare{{"compute", a}, {"etl", b}}
	if max := math.Max(a, b); max > 0 {
		res.Spread = math.Abs(a-b) / max
		res.MinMaxRatio = math.Min(a, b) / max
	}
	return res, nil
}

// drfOvercommitResult carries one execution's outcome plus its trace bytes.
type drfOvercommitResult struct {
	DRFOvercommitOutcome
	traces []byte
}

// runDRFOvercommitScenario oversubscribes a 4-node cluster: tenant A's
// 2916MB slices and tenant B's 2268MB slices sum to exactly the 1.5x cap
// (5184MB) but exceed the 3456MB physical node memory once both allocate.
// B's arrival triggers the sweep; the victim is A's larger mid-flight
// container, and A's durable checkpoints carry its banked iterations across
// the OOM-kill -> retry arc.
func runDRFOvercommitScenario(seed int64) (*drfOvercommitResult, error) {
	p, err := ckptPlatform(ires.Options{
		Seed:          seed,
		ClusterNodes:  4,
		CoresPerNode:  4,
		MemMBPerNode:  3456,
		MemOvercommit: 1.5,
		Admission:     ires.DRF(nil, 2),
		Retry:         ires.RetryPolicy{MaxAttempts: 8, BaseBackoff: 4 * time.Second},
		Checkpoint:    ires.CheckpointPolicy{Enabled: true, MinIntervalSec: 4, Durable: true},
	})
	if err != nil {
		return nil, err
	}
	if err := p.InjectFaults(ires.FaultConfig{Seed: seed, OOM: ires.OOMKillFaults{Prob: 1}}); err != nil {
		return nil, err
	}

	wfA, err := ckptChainWorkflow(p, 120_000)
	if err != nil {
		return nil, err
	}
	runA := p.SubmitWith(wfA, ires.SubmitOptions{
		Name: "mem-a", Tenant: "tenant-a", DemandCores: 2, DemandMemMB: 2916,
	})
	wfB, err := ckptWorkflow(p, engine.AlgKMeans, 15_000)
	if err != nil {
		return nil, err
	}
	p.Clock.Schedule(5*time.Second, func(time.Duration) {
		p.SubmitWith(wfB, ires.SubmitOptions{
			Name: "mem-b", Tenant: "tenant-b", DemandCores: 2, DemandMemMB: 2268,
		})
	})
	p.Drain()

	res := &drfOvercommitResult{}
	if res.BatchSec, res.traces, err = drained(p); err != nil {
		return nil, err
	}
	res.OOMKills = p.FaultStats().OOMKills
	for _, ev := range p.TraceForRun(runA.ID()) {
		if ev.Type == trace.EvCheckpointRestore {
			res.Restores++
		}
	}
	res.ReExecutedOps = reExecutedOps(p.TraceForRun(runA.ID()))
	return res, nil
}
