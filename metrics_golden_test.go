package ires

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/scheduler"
)

var updateMetricsGolden = flag.Bool("update", false, "rewrite the testdata/metrics_*.prom fixtures")

// wallClockLine matches the two exposition lines that measure wall-clock
// time; the fixtures hold them masked.
var wallClockLine = regexp.MustCompile(`(?m)^(ires_profiler_fit_(?:wall|busy)_seconds_total) .*$`)

// metricsScenarios are fixed-seed multi-run platforms whose /metrics
// expositions together reach every declared metric.
var metricsScenarios = []struct {
	name string
	run  func(t *testing.T) *Platform
}{
	{"deadline", deadlineMetricsScenario},
	{"costquota", costQuotaMetricsScenario},
	{"drf", drfMetricsScenario},
	{"ckptloss", ckptLossMetricsScenario},
}

// TestMetricsExpositionGolden pins the whole /metrics exposition of each
// scenario byte for byte (wall-clock lines masked). Regenerate with
// `go test -run TestMetricsExpositionGolden -update .` and review the diff.
func TestMetricsExpositionGolden(t *testing.T) {
	for _, sc := range metricsScenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := scrapeMasked(t, sc.run(t))
			path := filepath.Join("testdata", "metrics_"+sc.name+".prom")
			if *updateMetricsGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(g) && i < len(w); i++ {
					if g[i] != w[i] {
						t.Fatalf("%s: line %d differs:\n got: %s\nwant: %s", path, i+1, g[i], w[i])
					}
				}
				t.Fatalf("%s: %d lines, want %d", path, len(g), len(w))
			}
		})
	}
}

// scrapeMasked renders the platform's exposition with the wall-clock lines
// masked.
func scrapeMasked(t *testing.T, p *Platform) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := p.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return wallClockLine.ReplaceAll(b.Bytes(), []byte("$1 <wall-clock>"))
}

// waitAll waits for every run; failed runs are part of what the scenarios
// count, so their errors are not test failures.
func waitAll(runs []*Run) {
	for _, r := range runs {
		_, _, _ = r.Wait()
	}
}

// deadlineMetricsScenario: three long iterative chains and two urgent
// deadlined runs under Deadline with non-durable checkpoints, transient
// faults, stragglers with speculation, a Spark outage, a node crash and its
// repair, and the circuit breaker; plus one Pareto planning call.
func deadlineMetricsScenario(t *testing.T) *Platform {
	t.Helper()
	const seed = 42
	p, err := NewPlatform(Options{
		Seed:             seed,
		Admission:        Deadline(),
		Retry:            RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Second},
		TimeoutFactor:    1.2,
		Checkpoint:       CheckpointPolicy{Enabled: true, MinIntervalSec: 4},
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	registerStormOps(t, p)
	if err := p.InjectFaults(FaultConfig{
		Seed:        seed,
		Default:     FaultTransient{FailProb: 0.2},
		Straggler:   StragglerFaults{Prob: 0.6, Factor: 4},
		Outages:     []EngineOutage{{Engine: EngineSpark, At: 60 * time.Second}},
		NodeCrashes: []NodeCrash{{Node: "node2", At: 40 * time.Second}},
	}); err != nil {
		t.Fatal(err)
	}
	p.Clock.Schedule(700*time.Second, func(time.Duration) { _ = p.RestoreNode("node2") })
	if _, err := p.ParetoPlans(chainWorkflow(t, p, engine.AlgPagerank, engine.AlgKMeans, 50_000)); err != nil {
		t.Fatal(err)
	}

	var runs []*Run
	algos := [3][2]string{
		{engine.AlgPagerank, engine.AlgKMeans},
		{engine.AlgKMeans, engine.AlgPagerank},
		{engine.AlgPagerank, engine.AlgPagerank},
	}
	records := [3]int64{150_000, 120_000, 180_000}
	for i := range algos {
		runs = append(runs, p.SubmitNamed(fmt.Sprintf("long-%d", i), chainWorkflow(t, p, algos[i][0], algos[i][1], records[i])))
	}
	urgent := make(chan *Run, 2)
	for i, at := range []time.Duration{20 * time.Second, 60 * time.Second} {
		name := fmt.Sprintf("urgent-%d", i)
		p.Clock.Schedule(at, func(time.Duration) {
			urgent <- p.SubmitWith(singleAlgoWorkflow(t, p, engine.AlgKMeans, 15_000),
				SubmitOptions{Name: name, Deadline: at + 150*time.Second})
		})
	}
	p.Drain()
	waitAll(append(runs, <-urgent, <-urgent))
	return p
}

// capLease wraps a policy and shrinks every active whole-node lease above
// max nodes back to max: no shipped policy shrinks a lease, and the
// exposition must still reach ires_lease_shrinks_total.
type capLease struct {
	AdmissionPolicy
	max int
}

func (c capLease) NeedsEstimates() bool { return true }

func (c capLease) Decide(st scheduler.State) []scheduler.Action {
	actions := c.AdmissionPolicy.Decide(st)
	st.EachActive(func(a scheduler.RunState) bool {
		if a.LeasedNodes > c.max && !a.Preempting {
			actions = append(actions, scheduler.Resize{Run: a.ID, Nodes: c.max})
		}
		return true
	})
	return actions
}

// costQuotaMetricsScenario: two tenants under CostQuota on one-node leases
// with non-durable checkpoints, transient faults and the circuit breaker; one
// run rejected for a budget it can never fit, one canceled while queued, and
// node crashes and their repair.
func costQuotaMetricsScenario(t *testing.T) *Platform {
	t.Helper()
	const seed = 42
	p, err := NewPlatform(Options{
		Seed:             seed,
		Admission:        capLease{CostQuota(map[string]float64{"acme": 9_000, "tiny": 1}, 50_000), 1},
		Checkpoint:       CheckpointPolicy{Enabled: true, MinIntervalSec: 4},
		Retry:            RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Second},
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	registerConcOps(t, p)
	var crashed []string
	for i := 0; i < 12; i++ {
		crashed = append(crashed, fmt.Sprintf("node%d", i))
	}
	cfg := FaultConfig{Seed: seed, Default: FaultTransient{FailProb: 0.3}}
	for _, node := range crashed {
		cfg.NodeCrashes = append(cfg.NodeCrashes, NodeCrash{Node: node, At: 30 * time.Second})
	}
	if err := p.InjectFaults(cfg); err != nil {
		t.Fatal(err)
	}
	p.Clock.Schedule(90*time.Second, func(time.Duration) {
		for _, node := range crashed {
			_ = p.RestoreNode(node)
		}
	})
	var runs []*Run
	for i := range concAlgos {
		tenant := "acme"
		if i%2 == 1 {
			tenant = "other"
		}
		runs = append(runs, p.SubmitWith(singleAlgoWorkflow(t, p, concAlgos[i], concRecords[i]),
			SubmitOptions{Name: fmt.Sprintf("cq-%d", i), Tenant: tenant}))
	}
	runs = append(runs, p.SubmitWith(singleAlgoWorkflow(t, p, concAlgos[2], concRecords[2]),
		SubmitOptions{Name: "cq-rejected", Tenant: "tiny"}))
	canceled := p.SubmitWith(singleAlgoWorkflow(t, p, concAlgos[0], concRecords[0]),
		SubmitOptions{Name: "cq-canceled", Tenant: "acme"})
	canceled.Cancel()
	p.Drain()
	waitAll(append(runs, canceled))
	return p
}

// drfMetricsScenario is the memory-oversubscription scenario: DRF slices
// on an overcommitted cluster with an always-fire OOM killer.
func drfMetricsScenario(t *testing.T) *Platform {
	t.Helper()
	p, runs := oversubscribePlatform(t, 42)
	waitAll(runs)
	// Plan again once the runs' observations are in: the first plan refits
	// the models, the second evicts what the refit invalidated.
	wf := singleAlgoWorkflow(t, p, engine.AlgKMeans, 15_000)
	for i := 0; i < 2; i++ {
		if _, err := p.Plan(wf); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// ckptLossMetricsScenario is the checkpoint-loss scenario: two iterative
// chains on a four-node cluster with non-durable checkpoints. Every node
// crashes at 40 s, which takes the last replica of a running gang's
// checkpoint, and all four come back at 70 s; node1 crashes a second time
// while it is still down.
func ckptLossMetricsScenario(t *testing.T) *Platform {
	t.Helper()
	const seed = 42
	p, err := NewPlatform(Options{
		Seed:         seed,
		ClusterNodes: 4,
		CoresPerNode: 4,
		MemMBPerNode: 3456,
		Retry:        RetryPolicy{MaxAttempts: 6, BaseBackoff: 4 * time.Second},
		Checkpoint:   CheckpointPolicy{Enabled: true, MinIntervalSec: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	registerStormOps(t, p)
	cfg := FaultConfig{Seed: seed, NodeCrashes: []NodeCrash{
		{Node: "node0", At: 40 * time.Second},
		{Node: "node1", At: 40 * time.Second},
		{Node: "node2", At: 40 * time.Second},
		{Node: "node3", At: 40 * time.Second},
		{Node: "node1", At: 45 * time.Second},
	}}
	if err := p.InjectFaults(cfg); err != nil {
		t.Fatal(err)
	}
	p.Clock.Schedule(70*time.Second, func(time.Duration) {
		for i := 0; i < 4; i++ {
			_ = p.RestoreNode(fmt.Sprintf("node%d", i))
		}
	})
	runs := []*Run{
		p.SubmitNamed("loss-0", chainWorkflow(t, p, engine.AlgPagerank, engine.AlgKMeans, 120_000)),
		p.SubmitNamed("loss-1", chainWorkflow(t, p, engine.AlgKMeans, engine.AlgPagerank, 60_000)),
	}
	p.Drain()
	waitAll(runs)
	return p
}
