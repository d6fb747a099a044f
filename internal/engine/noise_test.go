package engine

import "testing"

// Interleaving runs of other operators must not perturb the noise stream an
// operator sees: each (engine, algorithm) pair draws from its own seeded
// stream, so A's n-th draw is the same whether or not B ran in between.
func TestNoiseStreamsAreInterleavingInvariant(t *testing.T) {
	const seed = 42
	const draws = 50

	alone := newNoiseSource(seed)
	var want []float64
	for i := 0; i < draws; i++ {
		want = append(want, alone.factor("Spark", "TF_IDF"))
	}

	interleaved := newNoiseSource(seed)
	for i := 0; i < draws; i++ {
		got := interleaved.factor("Spark", "TF_IDF")
		if got != want[i] {
			t.Fatalf("draw %d: interleaved factor %v != solo factor %v", i, got, want[i])
		}
		// Interleave draws from other streams between every A draw.
		interleaved.factor("Hama", "kmeans")
		interleaved.factor("Spark", "kmeans") // same engine, different algorithm
		interleaved.factor("MapReduce", "TF_IDF")
	}
}

// Engine executions observe the same invariance end to end: durations of a
// fixed operator sequence are unchanged by unrelated runs in between.
func TestExecuteNoiseInterleavingInvariant(t *testing.T) {
	run := func(env *Environment, interleave bool) []float64 {
		res := Resources{Nodes: 4, CoresPerN: 2, MemMBPerN: 3456}
		in := Input{Records: 100_000, Bytes: 100_000_000}
		var out []float64
		for i := 0; i < 10; i++ {
			r, err := env.Execute(EngineSpark, AlgTFIDF, in, res)
			if err != nil {
				t.Fatalf("Execute(Spark, TF_IDF): %v", err)
			}
			out = append(out, r.ExecTimeSec)
			if interleave {
				if _, err := env.Execute(EngineHama, AlgKMeans, in, res); err != nil {
					t.Fatalf("Execute(Hama, kmeans): %v", err)
				}
			}
		}
		return out
	}

	solo := run(NewDefaultEnvironment(7), false)
	mixed := run(NewDefaultEnvironment(7), true)
	for i := range solo {
		if solo[i] != mixed[i] {
			t.Fatalf("run %d: duration %v (solo) != %v (interleaved)", i, solo[i], mixed[i])
		}
	}
}
