// Quickstart: register two implementations of one operator, profile them,
// let IReS pick per input size, and execute the plan on the simulated
// multi-engine cluster.
package main

import (
	"fmt"
	"log"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
)

func main() {
	p, err := ires.NewPlatform(ires.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// 1. Register two materialized implementations of a "wordcount"
	// operator: a centralized Java one and a distributed Spark one. The
	// description format is the paper's dotted-property format.
	must(p.RegisterOperator("wordcount_java", `
Constraints.Engine=Java
Constraints.OpSpecification.Algorithm.name=wordcount
Constraints.Input0.Engine.FS=LFS
Constraints.Output0.Engine.FS=LFS
`))
	must(p.RegisterOperator("wordcount_spark", `
Constraints.Engine=Spark
Constraints.OpSpecification.Algorithm.name=wordcount
Constraints.Input0.Engine.FS=HDFS
Constraints.Output0.Engine.FS=HDFS
`))

	// 2. Profile both offline: IReS runs them over a grid of input sizes
	// and resource configurations and trains cross-validated estimation
	// models (cost is derived from the execution-time estimate).
	space := ires.ProfileSpace{
		Records:        []int64{1_000, 10_000, 100_000, 1_000_000},
		BytesPerRecord: 1_000,
		Resources: []engine.Resources{
			{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456},
			{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456},
		},
	}
	for _, op := range []string{"wordcount_java", "wordcount_spark"} {
		n, err := p.ProfileOperator(op, space)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("profiled %s with %d runs\n", op, n)
	}

	// 3. Build and run the same abstract workflow at two scales; IReS
	// materializes it differently each time.
	for _, docs := range []int64{5_000, 2_000_000} {
		wf, err := p.NewWorkflow().
			DatasetWithMeta("docs", fmt.Sprintf(
				"Constraints.Engine.FS=HDFS\nExecution.path=hdfs:///docs\nOptimization.documents=%d\nOptimization.size=%d",
				docs, docs*1_000)).
			Operator("count", "Constraints.OpSpecification.Algorithm.name=wordcount").
			Dataset("out").
			Chain("docs", "count", "out").
			Target("out").
			Build()
		if err != nil {
			log.Fatal(err)
		}
		plan, res, err := p.Run(wf)
		if err != nil {
			log.Fatal(err)
		}
		step, _ := plan.StepFor("count")
		fmt.Printf("%9d docs -> %-6s engine, simulated %v\n", docs, step.Engine, res.Makespan)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
