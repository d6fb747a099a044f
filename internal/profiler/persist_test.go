package profiler

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/asap-project/ires/internal/engine"
)

func TestExportImportRoundTrip(t *testing.T) {
	env := engine.NewDefaultEnvironment(12)
	src := newProfiler(env)
	if _, err := src.ProfileOffline("tfidf_spark", engine.EngineSpark, engine.AlgTFIDF, tfidfSpace()); err != nil {
		t.Fatal(err)
	}
	// Include a feasibility wall.
	prSpace := Space{
		Records:        []int64{10_000, 1_000_000, 50_000_000},
		BytesPerRecord: 40,
		Params:         map[string][]float64{"iterations": {10}},
		Resources:      []engine.Resources{engine.SingleNode},
	}
	if _, err := src.ProfileOffline("pagerank_java", engine.EngineJava, engine.AlgPagerank, prSpace); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}

	dst := newProfiler(engine.NewDefaultEnvironment(12))
	if err := dst.Import(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	if got := dst.Operators(); len(got) != 2 {
		t.Fatalf("imported operators = %v", got)
	}
	// Estimates must survive the round trip (same training data, same seed).
	feats := map[string]float64{
		"records": 20_000, "bytes": 20_000 * 5000,
		"nodes": 16, "cores": 2, "memoryMB": 3456,
	}
	want, ok1 := src.Estimate("tfidf_spark", TargetExecTime, feats)
	got, ok2 := dst.Estimate("tfidf_spark", TargetExecTime, feats)
	if !ok1 || !ok2 {
		t.Fatal("estimate unavailable after round trip")
	}
	if math.Abs(want-got) > 1e-9 {
		t.Fatalf("estimate drifted: %v -> %v", want, got)
	}
	// The feasibility wall survives too.
	if dst.Feasible("pagerank_java", 60_000_000) {
		t.Fatal("imported wall lost")
	}
	if !dst.Feasible("pagerank_java", 1_000_000) {
		t.Fatal("imported wall over-restrictive")
	}
	// Refinement continues to work on imported models.
	run, err := engine.NewDefaultEnvironment(13).Execute(engine.EngineSpark, engine.AlgTFIDF,
		engine.Input{Records: 40_000, Bytes: 2e8}, engine.StandardCluster)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Observe("tfidf_spark", run); err != nil {
		t.Fatal(err)
	}
	om, _ := dst.Models("tfidf_spark")
	if om.SampleCount() != 16 {
		t.Fatalf("samples after observe = %d, want 16", om.SampleCount())
	}
}

// A library whose feature set grew mid-session (historical rows zero-padded
// for the new parameter) must survive a save/load cycle without changing
// predictions. Import refits the persisted model family rather than
// re-running CV selection, which can land on a different family over the
// padded matrix and silently shift every estimate.
func TestExportImportKeepsExtendedFeatureSemantics(t *testing.T) {
	env := engine.NewDefaultEnvironment(7)
	src := newProfiler(env)
	if _, err := src.ProfileOffline("tfidf_spark", engine.EngineSpark, engine.AlgTFIDF, tfidfSpace()); err != nil {
		t.Fatal(err)
	}
	// Observed runs introduce a new operator parameter "k", extending the
	// feature set and zero-padding the offline rows.
	for i := int64(1); i <= 6; i++ {
		run := obsRun(i*20_000, 1.7*float64(i), map[string]float64{"k": float64(3 + i%2)})
		if err := src.Observe("tfidf_spark", run); err != nil {
			t.Fatal(err)
		}
	}
	som, _ := src.Models("tfidf_spark")
	extended := false
	for _, f := range som.Features {
		if f == "k" {
			extended = true
		}
	}
	if !extended {
		t.Fatalf("feature set %v not extended with k", som.Features)
	}

	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	dst := newProfiler(engine.NewDefaultEnvironment(7))
	if err := dst.Import(&buf); err != nil {
		t.Fatal(err)
	}

	dom, ok := dst.Models("tfidf_spark")
	if !ok {
		t.Fatal("operator missing after import")
	}
	feats := map[string]float64{
		"records": 60_000, "bytes": 6_000_000,
		"nodes": 8, "cores": 2, "memoryMB": 3456, "k": 4,
	}
	for _, target := range append(lazyTargets[:len(lazyTargets):len(lazyTargets)], TargetCost) {
		if got, want := dom.ChosenFamily(target), som.ChosenFamily(target); got != want {
			t.Errorf("%s: model family flipped %q -> %q across round trip", target, want, got)
		}
		want, ok1 := src.Estimate("tfidf_spark", target, feats)
		got, ok2 := dst.Estimate("tfidf_spark", target, feats)
		if ok1 != ok2 {
			t.Fatalf("%s: estimate availability drifted (%v -> %v)", target, ok1, ok2)
		}
		if math.Abs(want-got) > 1e-9 {
			t.Errorf("%s: estimate drifted across round trip: %v -> %v", target, want, got)
		}
	}
}

// testdata/library_learned_cost.json was exported while cost was still a
// learned target: every operator carries a cost column and a chosen family for
// it. Importing drops both, keeps the other choices, serves every estimate, and
// derives cost from the execution-time estimate bit for bit; re-exporting
// writes no cost.
func TestImportDropsLearnedCost(t *testing.T) {
	raw, err := os.ReadFile("testdata/library_learned_cost.json")
	if err != nil {
		t.Fatal(err)
	}
	var lib persistedLibrary
	if err := json.Unmarshal(raw, &lib); err != nil {
		t.Fatal(err)
	}
	p := New(engine.NewDefaultEnvironment(5), 5)
	if err := p.Import(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if len(lib.Operators) != 2 || len(p.Operators()) != 2 {
		t.Fatalf("imported %v from %d operators", p.Operators(), len(lib.Operators))
	}
	for _, po := range lib.Operators {
		if _, ok := po.Targets[TargetCost]; !ok || po.Chosen[TargetCost] == "" {
			t.Fatalf("%s: the fixture holds no learned cost", po.Operator)
		}
		om, _ := p.Models(po.Operator)
		for _, target := range lazyTargets {
			if got := om.ChosenFamily(target); got != po.Chosen[target] {
				t.Errorf("%s/%s: family %q, the file chose %q", po.Operator, target, got, po.Chosen[target])
			}
		}
		if got := om.ChosenFamily(TargetCost); got != "" {
			t.Errorf("%s: cost has a learned family %q", po.Operator, got)
		}
		served := 0
		for _, feats := range lazyProbes() {
			feats["nodes"], feats["memoryMB"] = 3, 2048
			for _, target := range lazyTargets {
				if _, ok := p.Estimate(po.Operator, target, feats); ok {
					served++
				}
			}
			tm, okT := p.Estimate(po.Operator, TargetExecTime, feats)
			c, okC := p.Estimate(po.Operator, TargetCost, feats)
			want := engine.Resources{Nodes: 3, CoresPerN: 2, MemMBPerN: 2048}.CostRate() * tm
			if okC != okT || math.Float64bits(c) != math.Float64bits(want) {
				t.Errorf("%s at %v: cost %v/%t, want CostRate x execTime = %v/%t", po.Operator, feats["records"], c, okC, want, okT)
			}
		}
		if served == 0 {
			t.Errorf("%s: no estimate served", po.Operator)
		}
	}
	var buf bytes.Buffer
	if err := p.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"cost"`)) {
		t.Error("the re-export still writes cost")
	}
}

// Version-1 files carry no recorded family choices; they must still import,
// falling back to full cross-validated selection as before.
func TestImportVersion1Compat(t *testing.T) {
	payload := `{"version": 1, "operators": [{
		"operator": "legacy_op", "algorithm": "alg", "engine": "Spark",
		"features": ["records", "nodes"],
		"samples": [[1000, 2], [2000, 2], [4000, 4], [8000, 4]],
		"targets": {"execTime": [1, 2, 3.5, 5]}}]}`
	p := newProfiler(engine.NewDefaultEnvironment(1))
	if err := p.Import(strings.NewReader(payload)); err != nil {
		t.Fatalf("v1 import: %v", err)
	}
	om, ok := p.Models("legacy_op")
	if !ok {
		t.Fatal("legacy operator missing after v1 import")
	}
	if om.ChosenFamily(TargetExecTime) == "" {
		t.Fatal("no model family selected for v1-imported target")
	}
	if _, ok := p.Estimate("legacy_op", TargetExecTime, map[string]float64{"records": 3000, "nodes": 3}); !ok {
		t.Fatal("estimate unavailable after v1 import")
	}
}

func TestImportErrors(t *testing.T) {
	p := newProfiler(engine.NewDefaultEnvironment(1))
	cases := []string{
		"{not json",
		`{"version": 99, "operators": []}`,
		`{"version": 1, "operators": [{"operator": ""}]}`,
		`{"version": 1, "operators": [{"operator": "x", "features": ["a"], "samples": [[1,2]], "targets": {}}]}`,
		`{"version": 1, "operators": [{"operator": "x", "features": ["a"], "samples": [[1]], "targets": {"execTime": [1,2]}}]}`,
	}
	for _, c := range cases {
		if err := p.Import(strings.NewReader(c)); err == nil {
			t.Errorf("accepted bad payload %q", c)
		}
	}
}

func TestExportEmpty(t *testing.T) {
	p := newProfiler(engine.NewDefaultEnvironment(1))
	var buf bytes.Buffer
	if err := p.Export(&buf); err != nil {
		t.Fatal(err)
	}
	q := newProfiler(engine.NewDefaultEnvironment(1))
	if err := q.Import(&buf); err != nil {
		t.Fatal(err)
	}
	if len(q.Operators()) != 0 {
		t.Fatal("empty import produced operators")
	}
}
