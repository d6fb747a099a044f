// Text clustering (the Fig 12 / §3.4 scenario): tf-idf feature extraction
// followed by k-means, with scikit and Spark implementations for both
// steps. In the mid-size range IReS picks a hybrid plan — tf-idf on
// centralized scikit, k-means on Spark — inserting the move operator
// between engines.
package main

import (
	"fmt"
	"log"
	"strings"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
)

func main() {
	p, err := ires.NewPlatform(ires.Options{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	register(p, "tfidf_scikit", ires.EngineScikit, "TF_IDF", "LFS", "csv")
	register(p, "tfidf_spark", ires.EngineSpark, "TF_IDF", "HDFS", "SequenceFile")
	register(p, "kmeans_scikit", ires.EngineScikit, "kmeans", "LFS", "csv")
	register(p, "kmeans_spark", ires.EngineSpark, "kmeans", "HDFS", "SequenceFile")

	for _, docs := range []int64{1_000, 6_000, 200_000} {
		wf, err := p.NewWorkflow().
			DatasetWithMeta("crawl", fmt.Sprintf(
				"Constraints.Engine.FS=HDFS\nConstraints.type=SequenceFile\nExecution.path=hdfs:///crawl\nOptimization.documents=%d\nOptimization.size=%d",
				docs, docs*5_000)).
			Operator("tfidf", "Constraints.OpSpecification.Algorithm.name=TF_IDF").
			Operator("kmeans", "Constraints.OpSpecification.Algorithm.name=kmeans").
			Dataset("vectors").
			Dataset("clusters").
			Chain("crawl", "tfidf", "vectors", "kmeans", "clusters").
			Target("clusters").
			Build()
		if err != nil {
			log.Fatal(err)
		}
		plan, res, err := p.Run(wf)
		if err != nil {
			log.Fatal(err)
		}
		tf, _ := plan.StepFor("tfidf")
		km, _ := plan.StepFor("kmeans")
		kind := "single-engine"
		if tf.Engine != km.Engine {
			kind = "HYBRID"
		}
		fmt.Printf("%8d docs: tfidf@%-7s kmeans@%-7s (%s) simulated %v\n",
			docs, tf.Engine, km.Engine, kind, res.Makespan)
	}
}

func register(p *ires.Platform, name, eng, alg, fs, typ string) {
	desc := strings.Join([]string{
		"Constraints.Engine=" + eng,
		"Constraints.OpSpecification.Algorithm.name=" + alg,
		"Constraints.Input0.Engine.FS=" + fs,
		"Constraints.Input0.type=" + typ,
		"Constraints.Output0.Engine.FS=" + fs,
		"Constraints.Output0.type=" + typ,
	}, "\n")
	if err := p.RegisterOperator(name, desc); err != nil {
		log.Fatal(err)
	}
	res := []engine.Resources{{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456}}
	if eng == ires.EngineScikit {
		res = []engine.Resources{{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456}}
	}
	if _, err := p.ProfileOperator(name, ires.ProfileSpace{
		Records:        []int64{1_000, 3_000, 10_000, 30_000, 100_000, 1_000_000},
		BytesPerRecord: 5_000,
		Resources:      res,
	}); err != nil {
		log.Fatal(err)
	}
}
