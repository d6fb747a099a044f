package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/model"
	"github.com/asap-project/ires/internal/profiler"
)

// The output-size targets select among LinearRegression and LeastMedSq only.
// On the Fig 12 operators' observation streams — the four text operators
// profiled over the default zoo, then the text workflow planned and executed
// at recurring corpus sizes — replay every selection the profiler makes (on
// the offline grid, then once ReselectEvery rows have arrived and the buffer
// has doubled) and, stricter, one every ReselectEvery rows in between, over
// the whole zoo and over the two families: the whole zoo's winner is always
// one of them, and the narrowed selection picks it and trains the same model
// bits.
func TestOutputFamiliesMatchWholeZooOnFig12(t *testing.T) {
	const seed = 42
	p, err := ires.NewPlatform(ires.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ops := []struct{ name, eng, alg, fs, typ string }{
		{"tfidf_scikit", ires.EngineScikit, "TF_IDF", "LFS", "csv"},
		{"tfidf_spark", ires.EngineSpark, "TF_IDF", "HDFS", "SequenceFile"},
		{"kmeans_scikit", ires.EngineScikit, "kmeans", "LFS", "csv"},
		{"kmeans_spark", ires.EngineSpark, "kmeans", "HDFS", "SequenceFile"},
	}
	profiled := map[string]int{} // the offline grid's successful runs: the first selection's rows
	for _, op := range ops {
		if err := p.RegisterOperator(op.name, textDesc(op.eng, op.alg, op.fs, op.typ)); err != nil {
			t.Fatal(err)
		}
		res := []engine.Resources{engine.StandardCluster}
		if op.eng == ires.EngineScikit {
			res = []engine.Resources{engine.SingleNode}
		}
		space := ires.ProfileSpace{Records: []int64{1_000, 3_000, 10_000, 30_000, 100_000, 1_000_000}, BytesPerRecord: 5_000, Resources: res}
		if profiled[op.name], err = p.ProfileOperator(op.name, space); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 120 {
		wf, err := TextWorkflow(p, []int64{5_000, 50_000, 70_000, 90_000, 110_000, 150_000}[i%6])
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := iresRunSec(p, wf); !ok {
			t.Fatalf("run %d failed", i)
		}
	}

	var buf bytes.Buffer
	if err := p.Profiler.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var lib struct {
		Operators []struct {
			Operator string
			X        [][]float64 `json:"samples"`
			Targets  map[string][]float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &lib); err != nil {
		t.Fatal(err)
	}
	zoo := model.DefaultFactories(seed)
	var cands []int
	for fam, f := range zoo {
		if name := f().Name(); name == "LinearRegression" || name == "LeastMedSq" {
			cands = append(cands, fam)
		}
	}
	compared, outside := 0, 0
	every := p.Profiler.ReselectEvery
	for _, op := range lib.Operators {
		var lengths []int
		for n := profiled[op.Operator]; n <= len(op.X); n += every {
			lengths = append(lengths, n)
		}
		for n := profiled[op.Operator]; n <= len(op.X); n = max(n+every, 2*n) {
			lengths = append(lengths, n)
		}
		slices.Sort(lengths)
		lengths = slices.Compact(lengths)
		for _, target := range []string{profiler.TargetOutRecords, profiler.TargetOutBytes} {
			lead := 0
			for _, n := range lengths {
				fit := func(fams []int) model.Fitted {
					f, _, err := model.Fit(zoo, op.X[:n], []model.Target{{Y: op.Targets[target][:n], Family: lead, Select: true, Families: fams}}, n, p.Profiler.CVFolds, seed, model.ByRelErr)
					if err != nil {
						t.Fatal(err)
					}
					return f[0]
				}
				full, narrow := fit(nil), fit(cands)
				compared++
				if !slices.Contains(cands, full.Family) {
					outside++
					t.Errorf("%s %s, %d rows: the whole zoo picked %s", op.Operator, target, n, full.Model.Name())
					continue
				}
				if narrow.Family != full.Family {
					t.Fatalf("%s %s, %d rows: narrowed picked %s, the whole zoo %s", op.Operator, target, n, narrow.Model.Name(), full.Model.Name())
				}
				for _, x := range op.X[:n] {
					if a, b := narrow.Model.Predict(x), full.Model.Predict(x); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s %s, %d rows: the narrowed model predicts %v, the whole zoo's %v", op.Operator, target, n, a, b)
					}
				}
				lead = narrow.Family
			}
		}
	}
	t.Logf("%d selections compared, %d won outside the output families", compared, outside)
	if compared < 16 {
		t.Errorf("only %d selections compared", compared)
	}
}
