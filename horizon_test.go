package ires

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/vtime"
)

// quickstartPlatform registers and profiles the quickstart operators on a
// platform with opts: a Java and a Spark wordcount, profiled at 10^3 to 10^6
// records.
func quickstartPlatform(t *testing.T, opts Options) *Platform {
	t.Helper()
	p, err := NewPlatform(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct{ name, engine, fs string }{
		{"wordcount_java", "Java", "LFS"},
		{"wordcount_spark", "Spark", "HDFS"},
	} {
		desc := fmt.Sprintf("Constraints.Engine=%s\nConstraints.OpSpecification.Algorithm.name=wordcount\n"+
			"Constraints.Input0.Engine.FS=%s\nConstraints.Output0.Engine.FS=%s\n", op.engine, op.fs, op.fs)
		if err := p.RegisterOperator(op.name, desc); err != nil {
			t.Fatal(err)
		}
		space := ProfileSpace{
			Records:        []int64{1_000, 10_000, 100_000, 1_000_000},
			BytesPerRecord: 1_000,
			Resources: []engine.Resources{
				{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456},
				{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456},
			},
		}
		if _, err := p.ProfileOperator(op.name, space); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// quickstartWorkflow is the quickstart's wordcount over a dataset, docs,
// that declares docs documents of size bytes in all.
func quickstartWorkflow(t *testing.T, p *Platform, docs, size string) *Workflow {
	t.Helper()
	wf, err := p.NewWorkflow().
		DatasetWithMeta("docs", fmt.Sprintf(
			"Constraints.Engine.FS=HDFS\nExecution.path=hdfs:///docs\nOptimization.documents=%s\nOptimization.size=%s",
			docs, size)).
		Operator("count", "Constraints.OpSpecification.Algorithm.name=wordcount").
		Dataset("out").
		Chain("docs", "count", "out").
		Target("out").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return wf
}

// TestRunPastTheHorizonFails runs the quickstart operators at 10^11 and
// 10^14 documents. The first run ends well inside the virtual-time horizon
// (2^63 ns, about 9.22e9 s) and succeeds; the second's attempt would end
// past it (about 5.4e10 s), so the run fails with the horizon error instead
// of reporting a wrapped makespan. (10^13 documents also succeed, at about
// 5.1e9 s, but simulating that span takes 5e8 monitor polls, about a minute
// on two cores.)
func TestRunPastTheHorizonFails(t *testing.T) {
	p := quickstartPlatform(t, Options{Seed: 1})
	run := func(docs int64) (*Plan, *ExecutionResult, error) {
		return p.Run(quickstartWorkflow(t, p, fmt.Sprint(docs), fmt.Sprint(docs*1_000)))
	}
	plan, res, err := run(1e11)
	if err != nil {
		t.Fatalf("10^11 documents: %v", err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("10^11 documents: makespan %v (planned %.3g s)", res.Makespan, plan.EstTimeSec)
	}
	plan, res, err = run(1e14)
	if err == nil {
		t.Fatalf("10^14 documents: succeeded with makespan %v (planned %.3g s); want the horizon error", res.Makespan, plan.EstTimeSec)
	}
	if !strings.Contains(err.Error(), "is not a virtual time") {
		t.Fatalf("10^14 documents: %v; want the horizon error", err)
	}
}

// TestPlanSizesNeverWrap plans the quickstart operators at 9*10^18
// documents of 9*10^18 bytes, where the models extrapolate output sizes past
// what an int64 holds: the plan either reports no negative size or fails
// with the planner's error.
func TestPlanSizesNeverWrap(t *testing.T) {
	p := quickstartPlatform(t, Options{Seed: 1})
	plan, err := p.Plan(quickstartWorkflow(t, p, "9000000000000000000", "9000000000000000000"))
	if err != nil {
		if !errors.Is(err, planner.ErrNoPlan) {
			t.Fatalf("9e18 documents: %v; want no plan or a plan without negative sizes", err)
		}
		return
	}
	for _, s := range plan.Steps {
		if s.InRecords < 0 || s.InBytes < 0 || s.OutRecords < 0 || s.OutBytes < 0 {
			t.Fatalf("9e18 documents: step %s reads %d records / %d bytes and writes %d / %d\n%s",
				s.Name, s.InRecords, s.InBytes, s.OutRecords, s.OutBytes, plan.Describe())
		}
	}
}

// TestDeclaredSizesNeverWrap plans and runs the quickstart operators over a
// dataset that declares a record count or size no int64 holds: both fail
// with the planner's error, naming the dataset and the value, where a plain
// conversion planned a wrapped size.
func TestDeclaredSizesNeverWrap(t *testing.T) {
	p := quickstartPlatform(t, Options{Seed: 1})
	for _, c := range []struct{ docs, size, bad string }{
		{"1000", "1e19", "Optimization.size=1e19"},
		{"1e19", "1000000", "Optimization.documents=1e19"},
		{"NaN", "1000000", "Optimization.documents=NaN"},
		{"1000", "-Inf", "Optimization.size=-Inf"},
		{"-1", "1000000", "Optimization.documents=-1"},
	} {
		wf := quickstartWorkflow(t, p, c.docs, c.size)
		plan, err := p.Plan(wf)
		if !errors.Is(err, planner.ErrNoPlan) || !strings.Contains(err.Error(), "dataset docs declares "+c.bad) {
			if plan != nil {
				s := plan.Steps[0]
				t.Fatalf("%s: planned; step %s reads %d records / %d bytes", c.bad, s.Name, s.InRecords, s.InBytes)
			}
			t.Fatalf("%s: plan error %v; want no plan, naming the dataset and the value", c.bad, err)
		}
		if _, _, err := p.Run(wf); !errors.Is(err, planner.ErrNoPlan) || !strings.Contains(err.Error(), c.bad) {
			t.Fatalf("%s: run error %v; want no plan, naming the value", c.bad, err)
		}
	}
}

// TestCooldownPastTheHorizonFails fails every attempt on both quickstart
// engines under a breaker that trips at the first failure and cools down
// for 2^63-1 ns: once both engines are blacklisted, waiting out a cooldown
// that ends past the virtual-time horizon fails the run with the horizon
// error, where an unchecked sum ended the wait at once.
func TestCooldownPastTheHorizonFails(t *testing.T) {
	p := quickstartPlatform(t, Options{Seed: 1, BreakerThreshold: 1, BreakerCooldown: math.MaxInt64})
	if err := p.InjectFaults(FaultConfig{Seed: 1, Default: FaultTransient{FailProb: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Run(quickstartWorkflow(t, p, "1000", "1000000")); !errors.Is(err, vtime.ErrHorizon) {
		t.Fatalf("run with both engines failing: %v; want the horizon error", err)
	}
}
