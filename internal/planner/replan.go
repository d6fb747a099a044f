package planner

import (
	"fmt"
	"strings"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/workflow"
)

// MaterializedIntermediate is an intermediate workflow dataset that already
// exists (a surviving result of a partially executed plan). Replanning
// seeds the dpTable with these at zero cost, so the new plan reuses them
// instead of re-executing their producers — the IResReplan strategy of
// D3.3 §4.5.
type MaterializedIntermediate struct {
	Dataset string // workflow dataset node name
	Meta    *metadata.Tree
	Records int64
	Bytes   int64
}

// Replan computes a fresh optimal plan for the workflow given the
// already-materialized intermediates. Combine with Config.EngineAvailable
// to exclude the failed engine.
func (p *Planner) Replan(g *workflow.Graph, done []MaterializedIntermediate) (*Plan, error) {
	return p.plan(g, done, true)
}

// Describe renders a human-readable summary of the plan. The output is a
// pure function of the plan's steps and estimates — it deliberately omits
// wall-clock PlanningTime so identical plans describe identically.
func (pl *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for target %s: est time %.1fs, est cost %.1f (objective %.2f)\n",
		pl.Target, pl.EstTimeSec, pl.EstCost, pl.EstObjective)
	for _, s := range pl.Steps {
		fmt.Fprintf(&b, "  %s", s)
		if len(s.DependsOn) > 0 {
			fmt.Fprintf(&b, " after %v", s.DependsOn)
		}
		if len(s.SourceInputs) > 0 {
			fmt.Fprintf(&b, " reads %v", s.SourceInputs)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// OperatorSteps returns only the operator steps of the plan.
func (pl *Plan) OperatorSteps() []*Step {
	var out []*Step
	for _, s := range pl.Steps {
		if s.Kind == StepOperator {
			out = append(out, s)
		}
	}
	return out
}

// Engines returns the distinct engines used by operator steps, in first-use
// order.
func (pl *Plan) Engines() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range pl.Steps {
		if s.Kind == StepOperator && !seen[s.Engine] {
			seen[s.Engine] = true
			out = append(out, s.Engine)
		}
	}
	return out
}

// StepFor returns the operator step materializing the given abstract
// workflow operator node, if present.
func (pl *Plan) StepFor(workflowNode string) (*Step, bool) {
	for _, s := range pl.Steps {
		if s.Kind == StepOperator && s.WorkflowNode == workflowNode {
			return s, true
		}
	}
	return nil, false
}
