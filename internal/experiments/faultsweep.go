package experiments

import (
	"errors"
	"fmt"
	"time"

	ires "github.com/asap-project/ires"
)

// FaultSweepRow is one (fault rate, strategy) cell of the sweep.
type FaultSweepRow struct {
	Rate         float64
	Strategy     string
	Completed    bool
	Outcome      string
	ExecSec      float64
	Replans      int
	Retries      int
	SpecLaunches int
	SpecWins     int
	CtrsLost     int
}

// faultSweepRates are the injected per-attempt transient failure
// probabilities the sweep walks through.
var faultSweepRates = []float64{0, 0.2, 0.4, 0.6, 0.8}

// faultSweepStrategies returns the three recovery policies compared:
//
//   - replan-only: the seed behavior — one attempt per step, every failure
//     consumed a replan (at most five per run).
//   - retry-only: per-step same-engine retries with exponential backoff;
//     replanning remains the last resort once a step's budget is exhausted.
//   - full: retries plus straggler speculation (timeout factor) plus the
//     engine circuit breaker.
func faultSweepStrategies(seed int64) []struct {
	Name string
	Opts ires.Options
} {
	retry := ires.RetryPolicy{MaxAttempts: 8, BaseBackoff: 2 * time.Second}
	// Elastic provisioning for every strategy: steps get right-sized gangs
	// instead of whole-cluster ones, which both matches the paper's
	// provisioning story and leaves the headroom speculative backups need.
	return []struct {
		Name string
		Opts ires.Options
	}{
		{"replan-only", ires.Options{Seed: seed, ElasticProvisioning: true}},
		{"retry-only", ires.Options{Seed: seed, ElasticProvisioning: true, Retry: retry}},
		{"full", ires.Options{
			Seed:                seed,
			ElasticProvisioning: true,
			Retry:               retry,
			TimeoutFactor:       2.0,
			BreakerThreshold:    3,
			BreakerCooldown:     60 * time.Second,
		}},
	}
}

// FaultSweepRows executes the sweep and returns the raw cells: each recovery
// policy runs the HelloWorld chain under every injected fault rate, with the
// same deterministic fault schedule per (rate, strategy) cell. Beyond the
// transient failures, rates above zero also inject stragglers (25% of runs
// slowed 4x, which only the full policy can absorb via speculation) and a
// mid-run node crash followed by a delayed repair.
func FaultSweepRows(seed int64) ([]FaultSweepRow, error) {
	var rows []FaultSweepRow
	for ri, rate := range faultSweepRates {
		for _, strat := range faultSweepStrategies(seed) {
			p, err := faultPlatformOpts(strat.Opts, false)
			if err != nil {
				return nil, err
			}
			// Give the Python-only HelloWorld a Spark implementation too, so
			// every step of the chain has an alternative engine to
			// speculate on when it straggles.
			if err := profileHelloWorldOp(p, "HelloWorld", ires.EngineSpark); err != nil {
				return nil, err
			}
			wf, err := faultWorkflow(p)
			if err != nil {
				return nil, err
			}
			plan, err := p.Plan(wf)
			if err != nil {
				return nil, err
			}

			cfg := ires.FaultConfig{
				// One fault timeline per rate, shared by the three
				// strategies so they face the same adversary.
				Seed:    seed*1000 + int64(ri),
				Default: ires.FaultTransient{FailProb: rate},
			}
			if rate > 0 {
				cfg.Straggler = ires.StragglerFaults{Prob: 0.25, Factor: 4}
				// node0 is where most-free-first places centralized
				// single-container steps, so the crash hits live work.
				cfg.NodeCrashes = []ires.NodeCrash{{Node: "node0", At: 40 * time.Second}}
				// Repair the node a while later: work lost on it must be
				// retried (or replanned) elsewhere in the meantime.
				p.Clock.Schedule(120*time.Second, func(time.Duration) {
					_ = p.RestoreNode("node0")
				})
			}
			if err := p.InjectFaults(cfg); err != nil {
				return nil, err
			}

			res, execErr := p.Execute(wf, plan)
			row := FaultSweepRow{Rate: rate, Strategy: strat.Name, Completed: execErr == nil, Outcome: "completed"}
			if execErr != nil {
				switch {
				case errors.Is(execErr, ires.ErrTooManyReplans):
					row.Outcome = "replans exhausted"
				case errors.Is(execErr, ires.ErrDeadlock):
					row.Outcome = "deadlocked"
				default:
					row.Outcome = "failed: " + trim(execErr.Error(), 40)
				}
			}
			if res != nil {
				row.ExecSec = res.Makespan.Seconds()
			}
			// Recovery counters come from the metrics registry (fed by the
			// trace stream) rather than the executor's result struct: each
			// cell runs on a fresh platform, so the totals are the cell's —
			// and they stay populated even when the execution fails partway.
			reg := p.Metrics()
			row.Replans = int(reg.Value("ires_replans_total", nil))
			row.Retries = int(reg.Value("ires_retries_total", nil))
			row.SpecLaunches = int(reg.Value("ires_speculative_launches_total", nil))
			row.SpecWins = int(reg.Value("ires_speculative_wins_total", nil))
			row.CtrsLost = int(reg.Sum("ires_containers_lost_total"))
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FaultSweep renders the sweep as a report: the headline result is that the
// full policy (retries + speculation + breaker + partial replanning) keeps
// completing workloads at fault rates where replan-only exhausts its replan
// budget — retries absorb transient failures locally so the replan budget is
// preserved for failures that actually need a new plan.
func FaultSweep(seed int64) (*Report, error) {
	rows, err := FaultSweepRows(seed)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:    "FAULTSWEEP",
		Title: "Recovery policy sweep: retry-only vs replan-only vs full policy",
	}
	table := Table{
		Title:  "HelloWorld chain under injected transient faults, stragglers and a node crash",
		Header: []string{"fault rate", "strategy", "outcome", "exec (s)", "replans", "retries", "spec wins", "ctrs lost"},
	}
	fullCompleted := true
	replanOnlyBroke := -1.0
	for _, row := range rows {
		exec := "-"
		if row.Completed {
			exec = fmt.Sprintf("%.1f", row.ExecSec)
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%.2f", row.Rate), row.Strategy, row.Outcome, exec,
			fmt.Sprintf("%d", row.Replans),
			fmt.Sprintf("%d", row.Retries),
			fmt.Sprintf("%d/%d", row.SpecWins, row.SpecLaunches),
			fmt.Sprintf("%d", row.CtrsLost),
		})
		switch row.Strategy {
		case "full":
			if !row.Completed {
				fullCompleted = false
			}
		case "replan-only":
			if !row.Completed && replanOnlyBroke < 0 {
				replanOnlyBroke = row.Rate
			}
		}
	}
	r.Tables = append(r.Tables, table)
	if replanOnlyBroke >= 0 && fullCompleted {
		r.Note("full policy completed every workload; replan-only first exceeded its replan budget at rate %.2f", replanOnlyBroke)
	} else if replanOnlyBroke < 0 {
		r.Note("replan-only survived every rate on this seed; raise the sweep rates to expose the budget limit")
	} else {
		r.Note("WARNING: full policy failed to complete at some rate on this seed")
	}

	// Sub-operator recovery comparison: the same mid-operator node crash
	// handled operator-granular (restart the operator) vs checkpointed
	// (resume from the last banked iteration boundary).
	ckptOut, granOut, crashAtSec, err := RunCkptRecovery(seed)
	if err != nil {
		return nil, fmt.Errorf("checkpoint recovery comparison: %w", err)
	}
	r.Tables = append(r.Tables, ckptRecoveryTable(ckptOut, granOut, crashAtSec))
	if ckptOut.RecomputedSec < granOut.RecomputedSec {
		r.Note("checkpointed recovery re-executed %.1f virtual-seconds vs %.1f operator-granular on the same crash (restored %d of %d iterations)",
			ckptOut.RecomputedSec, granOut.RecomputedSec, ckptOut.RestoredUnits, ckptBenchIters)
	} else {
		r.Note("WARNING: checkpointed recovery re-executed %.1f virtual-seconds, not less than operator-granular %.1f",
			ckptOut.RecomputedSec, granOut.RecomputedSec)
	}
	return r, nil
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
