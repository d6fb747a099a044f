package engine

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func env(t *testing.T) *Environment {
	t.Helper()
	return NewDefaultEnvironment(42)
}

func pagerankInput(edges int64) Input {
	return Input{Records: edges, Bytes: edges * 40, Params: map[string]float64{"iterations": 10}}
}

func gt(t *testing.T, e *Environment, eng string, in Input, res Resources) float64 {
	t.Helper()
	sec, err := e.GroundTruthSec(eng, AlgPagerank, in, res)
	if err != nil {
		t.Fatalf("%s: %v", eng, err)
	}
	return sec
}

// TestFig11Regimes locks in the qualitative shape of Figure 11: Java wins
// small graphs, Hama wins medium, Spark wins large; Java and Hama OOM at
// their respective memory walls.
func TestFig11Regimes(t *testing.T) {
	e := env(t)

	// Small graph (10k edges): Java fastest.
	small := pagerankInput(10_000)
	java := gt(t, e, EngineJava, small, SingleNode)
	spark := gt(t, e, EngineSpark, small, StandardCluster)
	hama := gt(t, e, EngineHama, small, StandardCluster)
	if !(java < hama && java < spark) {
		t.Errorf("small graph: java=%.1f hama=%.1f spark=%.1f; want java fastest", java, hama, spark)
	}

	// Medium graph (10M edges): Hama fastest.
	medium := pagerankInput(10_000_000)
	java = gt(t, e, EngineJava, medium, SingleNode)
	spark = gt(t, e, EngineSpark, medium, StandardCluster)
	hama = gt(t, e, EngineHama, medium, StandardCluster)
	if !(hama < java && hama < spark) {
		t.Errorf("medium graph: java=%.1f hama=%.1f spark=%.1f; want hama fastest", java, hama, spark)
	}

	// Large graph (100M edges): Java and Hama OOM, Spark survives.
	large := pagerankInput(100_000_000)
	if _, err := e.GroundTruthSec(EngineJava, AlgPagerank, large, SingleNode); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("java on 100M edges: err=%v, want OOM", err)
	}
	if _, err := e.GroundTruthSec(EngineHama, AlgPagerank, large, StandardCluster); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("hama on 100M edges: err=%v, want OOM", err)
	}
	if _, err := e.GroundTruthSec(EngineSpark, AlgPagerank, large, StandardCluster); err != nil {
		t.Errorf("spark on 100M edges: %v", err)
	}
}

// TestFig12Regimes locks in the Figure 12 shape: scikit beats Spark below
// ~10k documents, Spark wins above.
func TestFig12Regimes(t *testing.T) {
	e := env(t)
	in := func(docs int64) Input { return Input{Records: docs, Bytes: docs * 5_000} }

	sciSmall, err := e.GroundTruthSec(EngineScikit, AlgTFIDF, in(2_000), SingleNode)
	if err != nil {
		t.Fatal(err)
	}
	sparkSmall, err := e.GroundTruthSec(EngineSpark, AlgTFIDF, in(2_000), StandardCluster)
	if err != nil {
		t.Fatal(err)
	}
	if sciSmall >= sparkSmall {
		t.Errorf("2k docs: scikit=%.1f spark=%.1f; want scikit faster", sciSmall, sparkSmall)
	}

	sciBig, err := e.GroundTruthSec(EngineScikit, AlgTFIDF, in(100_000), SingleNode)
	if err != nil {
		t.Fatal(err)
	}
	sparkBig, err := e.GroundTruthSec(EngineSpark, AlgTFIDF, in(100_000), StandardCluster)
	if err != nil {
		t.Fatal(err)
	}
	if sparkBig >= sciBig {
		t.Errorf("100k docs: scikit=%.1f spark=%.1f; want spark faster", sciBig, sparkBig)
	}
}

// TestMemSQLOOM locks in the Figure 13 behaviour: MemSQL fails once the
// joined working set exceeds aggregate cluster memory (~2GB of input).
func TestMemSQLOOM(t *testing.T) {
	e := env(t)
	rows := func(gb float64) Input {
		return Input{Records: int64(gb * 6e6), Bytes: int64(gb * 1e9)}
	}
	if _, err := e.GroundTruthSec(EngineMemSQL, AlgSQLQ3, rows(1), StandardCluster); err != nil {
		t.Errorf("MemSQL at 1GB should run: %v", err)
	}
	if _, err := e.GroundTruthSec(EngineMemSQL, AlgSQLQ3, rows(5), StandardCluster); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("MemSQL at 5GB: err=%v, want OOM", err)
	}
}

func TestMonotonicInInput(t *testing.T) {
	e := env(t)
	for _, eng := range []string{EngineJava, EngineSpark, EngineHama} {
		res := StandardCluster
		if eng == EngineJava {
			res = SingleNode
		}
		prev := 0.0
		for _, edges := range []int64{1e4, 1e5, 1e6, 1e7} {
			sec := gt(t, e, eng, pagerankInput(edges), res)
			if sec <= prev {
				t.Errorf("%s: time not increasing at %d edges (%.2f <= %.2f)", eng, edges, sec, prev)
			}
			prev = sec
		}
	}
}

func TestMoreResourcesNeverSlower(t *testing.T) {
	e := env(t)
	in := Input{Records: 1e6, Bytes: 5e9}
	small, err := e.GroundTruthSec(EngineSpark, AlgTFIDF, in, Resources{Nodes: 2, CoresPerN: 2, MemMBPerN: 2048})
	if err != nil {
		t.Fatal(err)
	}
	big, err := e.GroundTruthSec(EngineSpark, AlgTFIDF, in, Resources{Nodes: 16, CoresPerN: 2, MemMBPerN: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if big >= small {
		t.Errorf("16 nodes (%.1fs) not faster than 2 nodes (%.1fs)", big, small)
	}
}

func TestDiskFactorAffectsDiskBoundEngines(t *testing.T) {
	e := env(t)
	in := Input{Records: 1e6, Bytes: 1e9}
	hdd, err := e.GroundTruthSec(EngineMapReduce, AlgWordcount, in, StandardCluster)
	if err != nil {
		t.Fatal(err)
	}
	infra := e.Infrastructure()
	infra.DiskFactor = 0.3 // SSD upgrade
	e.SetInfrastructure(infra)
	ssd, err := e.GroundTruthSec(EngineMapReduce, AlgWordcount, in, StandardCluster)
	if err != nil {
		t.Fatal(err)
	}
	if ssd >= hdd {
		t.Errorf("SSD (%.1fs) not faster than HDD (%.1fs)", ssd, hdd)
	}
}

func TestExecuteProducesMetrics(t *testing.T) {
	e := env(t)
	run, err := e.Execute(EngineSpark, AlgTFIDF, Input{Records: 10_000, Bytes: 5e7}, StandardCluster)
	if err != nil {
		t.Fatal(err)
	}
	if run.ExecTimeSec <= 0 || run.Failed {
		t.Fatalf("bad run: %+v", run)
	}
	if run.CostUnits <= 0 {
		t.Error("cost not computed")
	}
	if run.OutputRecords <= 0 || run.OutputBytes <= 0 {
		t.Error("output stats not computed")
	}
	if run.Params["records"] != 10_000 || run.Params["nodes"] != 16 {
		t.Errorf("params not recorded: %v", run.Params)
	}
	if _, ok := run.Feature("records"); !ok {
		t.Error("Feature lookup failed")
	}
	if v, ok := run.Feature("execTime"); !ok || v != run.ExecTimeSec {
		t.Error("execTime feature mismatch")
	}
}

func TestExecuteNoiseBounded(t *testing.T) {
	e := env(t)
	truth, err := e.GroundTruthSec(EngineSpark, AlgTFIDF, Input{Records: 50_000, Bytes: 1e8}, StandardCluster)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		run, err := e.Execute(EngineSpark, AlgTFIDF, Input{Records: 50_000, Bytes: 1e8}, StandardCluster)
		if err != nil {
			t.Fatal(err)
		}
		ratio := run.ExecTimeSec / truth
		if ratio < 0.5 || ratio > 2.0 {
			t.Fatalf("noise out of bounds: ratio=%.2f", ratio)
		}
	}
}

func TestUnavailableEngine(t *testing.T) {
	e := env(t)
	e.SetAvailable(EngineSpark, false)
	run, err := e.Execute(EngineSpark, AlgTFIDF, Input{Records: 1000, Bytes: 1e6}, StandardCluster)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if !run.Failed || run.FailureReason == "" {
		t.Error("failed run not recorded")
	}
	e.SetAvailable(EngineSpark, true)
	if _, err := e.Execute(EngineSpark, AlgTFIDF, Input{Records: 1000, Bytes: 1e6}, StandardCluster); err != nil {
		t.Fatalf("restored engine still failing: %v", err)
	}
}

func TestErrorCases(t *testing.T) {
	e := env(t)
	if _, err := e.GroundTruthSec("NoSuchEngine", AlgTFIDF, Input{Records: 1}, SingleNode); !errors.Is(err, ErrUnknownEngine) {
		t.Errorf("unknown engine: %v", err)
	}
	if _, err := e.GroundTruthSec(EngineSpark, "no_such_alg", Input{Records: 1}, StandardCluster); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm: %v", err)
	}
	if _, err := e.GroundTruthSec(EngineSpark, AlgTFIDF, Input{Records: 1}, Resources{}); err == nil {
		t.Error("zero resources accepted")
	}
}

func TestTransferSec(t *testing.T) {
	e := env(t)
	base := e.TransferSec(0)
	if base <= 0 {
		t.Fatal("zero-byte transfer should still cost the fixed setup")
	}
	small := e.TransferSec(1e6)
	big := e.TransferSec(1e9)
	if !(base <= small && small < big) {
		t.Fatalf("transfer not monotonic: %v %v %v", base, small, big)
	}
	if neg := e.TransferSec(-5); neg != base {
		t.Fatalf("negative bytes should clamp to fixed cost, got %v", neg)
	}
}

func TestScaleParams(t *testing.T) {
	e := env(t)
	in8 := Input{Records: 100_000, Bytes: 1e8, Params: map[string]float64{"k": 8}}
	in32 := Input{Records: 100_000, Bytes: 1e8, Params: map[string]float64{"k": 32}}
	t8, err := e.GroundTruthSec(EngineSpark, AlgKMeans, in8, StandardCluster)
	if err != nil {
		t.Fatal(err)
	}
	t32, err := e.GroundTruthSec(EngineSpark, AlgKMeans, in32, StandardCluster)
	if err != nil {
		t.Fatal(err)
	}
	if t32 <= t8 {
		t.Errorf("k=32 (%.2f) not slower than k=8 (%.2f)", t32, t8)
	}
}

// Property: ground truth is deterministic and positive for arbitrary valid
// inputs across all engines and algorithms (or fails with a typed error).
func TestQuickGroundTruthDeterministic(t *testing.T) {
	e := env(t)
	engines := e.Engines()
	algs := []string{AlgPagerank, AlgTFIDF, AlgKMeans, AlgWordcount, AlgLineCount, AlgSQLQ1}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		eng := engines[r.Intn(len(engines))]
		alg := algs[r.Intn(len(algs))]
		in := Input{Records: int64(r.Intn(1_000_000) + 1), Bytes: int64(r.Intn(1_000_000_000) + 1)}
		res := Resources{Nodes: r.Intn(16) + 1, CoresPerN: r.Intn(4) + 1, MemMBPerN: (r.Intn(8) + 1) * 1024}
		a, errA := e.GroundTruthSec(eng, alg, in, res)
		b, errB := e.GroundTruthSec(eng, alg, in, res)
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return errors.Is(errA, ErrOutOfMemory)
		}
		return a == b && a > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestResourcesHelpers(t *testing.T) {
	r := Resources{Nodes: 4, CoresPerN: 2, MemMBPerN: 1024}
	if r.TotalCores() != 8 || r.TotalMemMB() != 4096 {
		t.Fatal("totals wrong")
	}
	if r.CostRate() != 4*2*1.0 {
		t.Fatalf("CostRate = %v", r.CostRate())
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

func TestAffinityScalesRates(t *testing.T) {
	e := env(t)
	// scikit has a 3x affinity for TF_IDF and 0.5x for kmeans: the same
	// engine must beat its own base rate on one algorithm and trail it on
	// the other, relative to an affinity-free engine of equal base rate.
	in := Input{Records: 100_000, Bytes: 5e8}
	sciTfidf, err := e.GroundTruthSec(EngineScikit, AlgTFIDF, in, SingleNode)
	if err != nil {
		t.Fatal(err)
	}
	sciKmeans, err := e.GroundTruthSec(EngineScikit, AlgKMeans, in, SingleNode)
	if err != nil {
		t.Fatal(err)
	}
	// tfidf: 2000 units/rec with 3x affinity; kmeans: 7500 units/rec with
	// 0.5x affinity -> kmeans must be far more than 7500/2000 ~ 3.75x
	// slower (6x affinity gap on top).
	if ratio := sciKmeans / sciTfidf; ratio < 10 {
		t.Errorf("affinity not applied: kmeans/tfidf ratio = %.1f", ratio)
	}
}
