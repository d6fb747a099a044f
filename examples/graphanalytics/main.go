// Graph analytics (the Fig 11 scenario): PageRank computes subscriber
// influence scores over a telecom call graph, and IReS picks Java, Hama or
// Spark to run it depending on graph size.
package main

import (
	"fmt"
	"log"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
)

func main() {
	p, err := ires.NewPlatform(ires.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// PageRank implementations on three engines (input resides in HDFS).
	for _, eng := range []string{ires.EngineJava, ires.EngineHama, ires.EngineSpark} {
		desc := "Constraints.Engine=" + eng + `
Constraints.OpSpecification.Algorithm.name=pagerank
Constraints.Input0.Engine.FS=HDFS
Constraints.Output0.Engine.FS=HDFS
Optimization.param.iterations=10
`
		if err := p.RegisterOperator("pagerank_"+eng, desc); err != nil {
			log.Fatal(err)
		}
		res := []engine.Resources{{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456}}
		if eng == ires.EngineJava {
			res = []engine.Resources{{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456}}
		}
		if _, err := p.ProfileOperator("pagerank_"+eng, ires.ProfileSpace{
			Records:        []int64{10_000, 100_000, 1_000_000, 10_000_000, 100_000_000},
			BytesPerRecord: 40,
			Params:         map[string][]float64{"iterations": {10}},
			Resources:      res,
		}); err != nil {
			log.Fatal(err)
		}
	}

	// Schedule the workflow at three scales and watch the engine flip.
	for _, edges := range []int64{50_000, 20_000_000, 150_000_000} {
		wf, err := p.NewWorkflow().
			DatasetWithMeta("cdr", fmt.Sprintf(
				"Constraints.Engine.FS=HDFS\nExecution.path=hdfs:///cdr\nOptimization.documents=%d\nOptimization.size=%d",
				edges, edges*40)).
			Operator("pagerank", "Constraints.OpSpecification.Algorithm.name=pagerank").
			Dataset("influence").
			Chain("cdr", "pagerank", "influence").
			Target("influence").
			Build()
		if err != nil {
			log.Fatal(err)
		}
		plan, res, err := p.Run(wf)
		if err != nil {
			log.Fatal(err)
		}
		step, _ := plan.StepFor("pagerank")
		fmt.Printf("%12d edges -> %-6s simulated %v\n", edges, step.Engine, res.Makespan)
	}
}
