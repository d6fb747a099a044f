// Package metrics defines the monitoring record IReS collects for every
// operator execution. D3.3 §2.2.1 lists 45 monitored metrics, among them a
// periodic timeline of cluster system metrics pulled from Ganglia; the record
// keeps only what the modeler consumes: the run's features (data, operator
// and resource parameters) and its outcomes (execution time, cost, input and
// output sizes). The simulated engines produce the same records the real
// monitoring layer would, so the profiler/modeler code is identical to what
// would run against a live cluster.
package metrics

import (
	"sort"
)

// Run is the full monitoring record of a single operator execution.
type Run struct {
	Operator  string // materialized operator name
	Algorithm string
	Engine    string

	// Params carries the data-, operator- and resource-specific input
	// parameters of the run (e.g. "documents", "k", "iterations", "nodes",
	// "cores", "memoryMB"). These are the model features.
	Params map[string]float64

	ExecTimeSec   float64
	CostUnits     float64 // #VM * cores/VM * GB/VM * t (Truong-Dustdar style)
	InputBytes    int64
	OutputBytes   int64
	InputRecords  int64
	OutputRecords int64

	Failed        bool
	FailureReason string
}

// Feature returns a named feature of the run, looking first at Params and
// then at the built-in scalar metrics.
func (r *Run) Feature(name string) (float64, bool) {
	if v, ok := r.Params[name]; ok {
		return v, true
	}
	switch name {
	case "execTime":
		return r.ExecTimeSec, true
	case "cost":
		return r.CostUnits, true
	case "inputBytes":
		return float64(r.InputBytes), true
	case "outputBytes":
		return float64(r.OutputBytes), true
	case "inputRecords":
		return float64(r.InputRecords), true
	case "outputRecords":
		return float64(r.OutputRecords), true
	}
	return 0, false
}

// ParamNames returns the sorted parameter names of the run.
func (r *Run) ParamNames() []string {
	names := make([]string, 0, len(r.Params))
	for n := range r.Params {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
