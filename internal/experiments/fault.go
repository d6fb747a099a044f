package experiments

import (
	"fmt"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/metrics"
)

// helloWorldOp is one Table 1 row: operator and its available engines.
type helloWorldOp struct {
	alg     string
	engines []string
}

// helloWorldEngines mirrors Table 1 in a deterministic order, so identical
// seeds produce identical profiles (and therefore identical optimal plans)
// across the compared strategies.
func helloWorldEngines() []helloWorldOp {
	return []helloWorldOp{
		{"HelloWorld", []string{ires.EnginePython}},
		{"HelloWorld1", []string{ires.EngineSpark, ires.EnginePython}},
		{"HelloWorld2", []string{ires.EngineSpark, "MLlib", ires.EnginePostgreSQL, "Hive"}},
		{"HelloWorld3", []string{ires.EngineSpark, ires.EnginePython}},
	}
}

// faultPlatform registers and profiles the HelloWorld operator chain of the
// fault-tolerance evaluation (Figs 18-19, Table 1).
func faultPlatform(seed int64, trivialReplan bool) (*ires.Platform, error) {
	return faultPlatformOpts(ires.Options{Seed: seed}, trivialReplan)
}

// faultPlatformOpts is faultPlatform with full control over the platform
// options (the fault sweep varies the recovery policy knobs).
func faultPlatformOpts(opts ires.Options, trivialReplan bool) (*ires.Platform, error) {
	seed := opts.Seed
	p, err := ires.NewPlatform(opts)
	if err != nil {
		return nil, err
	}
	p.Profiler.Factories = fastFactories(seed)
	for _, hw := range helloWorldEngines() {
		for _, eng := range hw.engines {
			if err := profileHelloWorldOp(p, hw.alg, eng); err != nil {
				return nil, err
			}
		}
	}
	if trivialReplan {
		p.UseTrivialReplanner()
	}
	return p, nil
}

// profileHelloWorldOp registers and profiles one <alg>_<engine> operator of
// the HelloWorld family.
func profileHelloWorldOp(p *ires.Platform, alg, eng string) error {
	fs := "HDFS"
	switch eng {
	case ires.EnginePostgreSQL:
		fs = "PostgreSQL"
	case ires.EnginePython:
		fs = "LFS"
	}
	name := fmt.Sprintf("%s_%s", alg, eng)
	desc := "Constraints.Engine=" + eng +
		"\nConstraints.OpSpecification.Algorithm.name=" + alg +
		"\nConstraints.Input0.Engine.FS=" + fs +
		"\nConstraints.Output0.Engine.FS=" + fs + "\n"
	if err := p.RegisterOperator(name, desc); err != nil {
		return err
	}
	prof, _ := p.Env.Engine(eng)
	res := []engine.Resources{{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456}}
	if prof.Centralized {
		res = []engine.Resources{{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456}}
	}
	space := ires.ProfileSpace{
		Records:        []int64{200, 1_000, 5_000},
		BytesPerRecord: 1_000,
		Resources:      res,
	}
	if _, err := p.ProfileOperator(name, space); err != nil {
		return fmt.Errorf("profiling %s: %w", name, err)
	}
	return nil
}

// faultWorkflow builds the Fig 18 chain:
// d0 -> HelloWorld -> d1 -> HelloWorld1 -> d2 -> HelloWorld2 -> d3 -> HelloWorld3 -> d4.
func faultWorkflow(p *ires.Platform) (*ires.Workflow, error) {
	b := p.NewWorkflow().
		DatasetWithMeta("d0", "Constraints.Engine.FS=LFS\nExecution.path=/d0\nOptimization.documents=1000\nOptimization.size=1000000")
	prev := "d0"
	for i, alg := range []string{"HelloWorld", "HelloWorld1", "HelloWorld2", "HelloWorld3"} {
		op := fmt.Sprintf("op%d", i)
		out := fmt.Sprintf("d%d", i+1)
		b = b.Operator(op, "Constraints.OpSpecification.Algorithm.name="+alg).
			Dataset(out).
			Chain(prev, op, out)
		prev = out
	}
	return b.Target(prev).Build()
}

// FaultTolerance reproduces the fault-tolerance evaluation (Table 1 and
// Figs 18-22): for each of the three failure scenarios — the engine of
// HelloWorld1/2/3 dies just before the operator starts — it measures
// execution and replanning time under IResReplan (partial replanning
// reusing intermediates), TrivialReplan (full workflow re-execution) and
// SubOptPlan (the engine missing from the start, no failure).
func FaultTolerance(seed int64) (*Report, error) {
	r := &Report{
		ID:    "FIG20-22",
		Title: "Fault tolerance: IResReplan vs TrivialReplan vs SubOptPlan",
	}
	table := Table{
		Title:  "Execution and planning time per failure scenario",
		Header: []string{"scenario", "strategy", "exec time (s)", "planning (ms)", "replans"},
	}

	for i := 1; i <= 3; i++ {
		scenario := fmt.Sprintf("HelloWorld%d fails", i)
		var iresExec, trivialExec float64

		for _, strategy := range []string{"IResReplan", "TrivialReplan", "SubOptPlan"} {
			p, err := faultPlatform(seed, strategy == "TrivialReplan")
			if err != nil {
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
			victim := engineOfStep(plan, fmt.Sprintf("op%d", i))
			if victim == "" {
				return nil, fmt.Errorf("fault: scenario %d: no engine for op%d", i, i)
			}

			var res *ires.ExecutionResult
			switch strategy {
			case "SubOptPlan":
				// The victim engine is unavailable from the beginning; the
				// (sub-optimal) plan runs without failures.
				p.SetEngineAvailable(victim, false)
				subPlan, err := p.Plan(wf)
				if err != nil {
					return nil, err
				}
				res, err = p.Execute(wf, subPlan)
				if err != nil {
					return nil, err
				}
				res.ReplanTime = subPlan.PlanningTime
			default:
				// Kill the victim the moment the previous operator
				// completes, so operator i fails at launch.
				prevAlg := []string{"HelloWorld", "HelloWorld1", "HelloWorld2"}[i-1]
				armKill(p, prevAlg, victim)
				res, err = p.Execute(wf, plan)
				if err != nil {
					return nil, fmt.Errorf("fault %s/%s: %w", scenario, strategy, err)
				}
			}
			execSec := res.Makespan.Seconds()
			planMs := float64(res.ReplanTime.Microseconds()) / 1000.0
			switch strategy {
			case "IResReplan":
				iresExec = execSec
			case "TrivialReplan":
				trivialExec = execSec
			}
			table.Rows = append(table.Rows, []string{
				scenario, strategy,
				fmt.Sprintf("%.1f", execSec),
				fmt.Sprintf("%.3f", planMs),
				fmt.Sprintf("%d", res.Replans),
			})
		}
		if iresExec > 0 && trivialExec > 0 {
			r.Note("%s: IResReplan %.1fs vs TrivialReplan %.1fs (%.0f%% saved)",
				scenario, iresExec, trivialExec, 100*(1-iresExec/trivialExec))
		}
	}
	r.Tables = append(r.Tables, table)
	return r, nil
}

// armKill installs an observer that disables victim once an operator of the
// given algorithm completes successfully.
func armKill(p *ires.Platform, afterAlg, victim string) {
	p.SetRunObserver(func(op string, run *metrics.Run) {
		if run.Algorithm == afterAlg && !run.Failed {
			p.SetEngineAvailable(victim, false)
		}
	})
}

func engineOfStep(plan *ires.Plan, workflowNode string) string {
	for _, s := range plan.OperatorSteps() {
		if s.WorkflowNode == workflowNode {
			return s.Engine
		}
	}
	return ""
}
