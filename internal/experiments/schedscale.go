package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/cluster"
	"github.com/asap-project/ires/internal/executor"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/scheduler"
	"github.com/asap-project/ires/internal/vtime"
	"github.com/asap-project/ires/internal/workflow"
)

// scaleNodes is the cluster size for the scale benchmark. Every node is
// reserved out from under the scheduler before any run is submitted, so each
// decision round is a pure hold-decision: the policy must look at the state
// and conclude nothing can be admitted. That isolates exactly the per-round
// state cost the indexed state exists to bound: a scheduler that rebuilt its
// policy input per event paid O(queue depth) to reach "no" (6.5 rounds/s at
// 100k queued runs when last measured); the indexed one pays O(1).
const scaleNodes = 16

// SchedScalePoint is one (policy, queue depth) measurement.
type SchedScalePoint struct {
	Depth int `json:"depth"`
	// DecisionsPerSec is decision rounds per second against the
	// incrementally maintained indexed state: the best of three windows,
	// because this is a wall-clock figure on a shared host that has fast and
	// slow spells.
	DecisionsPerSec float64 `json:"decisionsPerSec"`
	// AllocsPerDecision is the heap allocation count of one decision round.
	// The gate requires both to stay flat as depth grows.
	AllocsPerDecision float64 `json:"allocsPerDecision"`
}

// SchedScalePolicy is one admission policy's scaling curve.
type SchedScalePolicy struct {
	Policy string            `json:"policy"`
	Points []SchedScalePoint `json:"points"`
}

// SchedScaleBench is the machine-readable result of the fleet-scale
// scheduling gate (cell SCHEDSCALE, `make bench-sched-scale`): a full
// cluster with 1k–100k queued runs, measuring decision-round throughput and
// allocations per round over queue depth.
type SchedScaleBench struct {
	Seed     int64              `json:"seed"`
	Nodes    int                `json:"nodes"`
	Depths   []int              `json:"depths"`
	Policies []SchedScalePolicy `json:"policies"`
}

// Gate returns an error unless, for every policy, a decision round costs
// O(1) in queue depth — what the indexed state promises: decisions per second
// at the deepest point are at least half those at the shallowest (a round
// that scanned the queue would lose the depth ratio, 100x), and allocations
// per decision at the deepest point do not exceed max(2x, +4) of the
// shallowest.
func (b *SchedScaleBench) Gate() error {
	if len(b.Policies) == 0 {
		return fmt.Errorf("no policies measured")
	}
	for _, p := range b.Policies {
		if len(p.Points) < 2 {
			return fmt.Errorf("%s: need at least two depths, got %d", p.Policy, len(p.Points))
		}
		shallow, deep := p.Points[0], p.Points[len(p.Points)-1]
		if deep.DecisionsPerSec < shallow.DecisionsPerSec/2 {
			return fmt.Errorf("%s: %.0f decisions/s at depth %d vs %.0f at depth %d — not O(1) in queue depth",
				p.Policy, deep.DecisionsPerSec, deep.Depth, shallow.DecisionsPerSec, shallow.Depth)
		}
		if limit := math.Max(2*shallow.AllocsPerDecision, shallow.AllocsPerDecision+4); deep.AllocsPerDecision > limit {
			return fmt.Errorf("%s: %.1f allocs/decision at depth %d vs %.1f at depth %d — not O(1) in queue depth",
				p.Policy, deep.AllocsPerDecision, deep.Depth, shallow.AllocsPerDecision, shallow.Depth)
		}
	}
	return nil
}

// scaleExec satisfies scheduler.Exec but must never run: the cluster is
// fully reserved, so no run can be admitted during the benchmark.
type scaleExec struct{}

func (scaleExec) Execute(*workflow.Graph, *planner.Plan) (*executor.Result, error) {
	return nil, fmt.Errorf("bench-sched-scale: executor invoked on a fully reserved cluster")
}

// newScaleScheduler builds a scheduler whose cluster is fully reserved and
// queues depth runs with mixed tenants, users and (every third run)
// deadlines — deep enough to exercise the EDF heap and the intrusive queue,
// while every decision round stays a hold-decision.
func newScaleScheduler(policy scheduler.Policy, depth int, seed int64) (*scheduler.Scheduler, error) {
	clock := vtime.NewClock()
	clu := cluster.New(clock, scaleNodes, 4, 8192)
	if _, err := clu.Reserve(scaleNodes); err != nil {
		return nil, fmt.Errorf("reserving the cluster: %w", err)
	}
	sched, err := scheduler.New(scheduler.Config{
		Clock:       clock,
		Cluster:     clu,
		Policy:      policy,
		Plan:        func(*workflow.Graph) (*planner.Plan, error) { return nil, fmt.Errorf("not planned") },
		NewExecutor: func(scheduler.ExecContext) scheduler.Exec { return scaleExec{} },
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	tenants := []string{"acme", "beta", "gamma", "delta"}
	users := []string{"ana", "bob", "cat", "dee", "eli"}
	g := workflow.NewGraph()
	g.Target = "scale"
	for i := 0; i < depth; i++ {
		opts := scheduler.SubmitOptions{
			Tenant: tenants[rng.Intn(len(tenants))],
			User:   users[rng.Intn(len(users))],
		}
		if i%3 == 0 {
			opts.Deadline = time.Duration(60+rng.Intn(100_000)) * time.Second
		}
		sched.SubmitWith(g, opts)
	}
	if got := sched.QueueDepth(); got != depth {
		return nil, fmt.Errorf("queue depth %d after submitting %d runs — something was admitted", got, depth)
	}
	return sched, nil
}

// measureRate times f in batches until the budget elapses and returns calls
// per second. batch amortizes the clock reads for sub-microsecond rounds.
func measureRate(f func(), batch int, budget time.Duration) float64 {
	f() // warm caches outside the timed window
	calls := 0
	start := time.Now()
	for {
		for i := 0; i < batch; i++ {
			f()
		}
		calls += batch
		if elapsed := time.Since(start); elapsed >= budget {
			return float64(calls) / elapsed.Seconds()
		}
	}
}

// scaleDepths are the queued-run depths each policy is measured at.
var scaleDepths = []int{1_000, 10_000, 50_000, 100_000}

// RunSchedScaleBench executes the benchmark: for each policy and queue
// depth it builds a fully reserved cluster with depth queued runs, then
// measures hold-decision rounds per second and heap allocations per round.
func RunSchedScaleBench(seed int64) (*SchedScaleBench, error) {
	bench := &SchedScaleBench{Seed: seed, Nodes: scaleNodes, Depths: scaleDepths}
	policies := []scheduler.Policy{
		scheduler.FIFO{},
		scheduler.Deadline{},
	}
	for _, policy := range policies {
		curve := SchedScalePolicy{Policy: policy.Name()}
		for _, depth := range scaleDepths {
			sched, err := newScaleScheduler(policy, depth, seed)
			if err != nil {
				return nil, fmt.Errorf("%s depth %d: %w", policy.Name(), depth, err)
			}
			pt := SchedScalePoint{Depth: depth}
			for window := 0; window < 3; window++ {
				rate := measureRate(func() { sched.DecideIndexed() }, 256, 100*time.Millisecond)
				pt.DecisionsPerSec = math.Max(pt.DecisionsPerSec, rate)
			}
			pt.AllocsPerDecision = testing.AllocsPerRun(200, func() { sched.DecideIndexed() })
			curve.Points = append(curve.Points, pt)
		}
		bench.Policies = append(bench.Policies, curve)
	}
	return bench, nil
}

// Report renders the benchmark as an ires-bench report: each policy's curve
// over queue depth (the policy name goes last, it is wider than a column).
func (b *SchedScaleBench) Report() *Report {
	r := &Report{ID: "SCHEDSCALE", Title: "Fleet-scale scheduling: the cost of a decision round over queue depth"}
	t := Table{
		Title:  fmt.Sprintf("hold-decision rounds on a fully reserved %d-node cluster", b.Nodes),
		Header: []string{"queued runs", "decisions/s", "allocs/decision", "policy"},
	}
	for _, p := range b.Policies {
		for _, pt := range p.Points {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", pt.Depth),
				fmt.Sprintf("%.0f", pt.DecisionsPerSec),
				fmt.Sprintf("%.1f", pt.AllocsPerDecision),
				"  " + p.Policy,
			})
		}
	}
	r.Tables = append(r.Tables, t)
	return r
}
