package model

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// The pool starts jobs in the order they were pushed, pushes from inside a
// job included: on one worker that is the order they run in.
func TestPoolRunsJobsInFIFOOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var order []int
	var p pool[int]
	p.do = func(_ *kit, j int) {
		order = append(order, j)
		if j < 10 && j%2 == 0 {
			p.push(100 + j)
		}
	}
	for j := range 10 {
		p.push(j)
	}
	p.run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 102, 104, 106, 108}
	if !slices.Equal(order, want) {
		t.Errorf("ran %v, want %v", order, want)
	}
}

// waitGoroutines waits for the goroutine count to come back to base.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines outlive it (%d before)", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// A job tree that grows from inside its jobs runs to the last leaf on
// GOMAXPROCS workers, never more at once, and no worker outlives run; the
// summed job time is positive and at most wall time x workers.
func TestPoolRunsAJobGraphToTheEnd(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		base := runtime.NumGoroutine()
		var ran, inflight, peak atomic.Int64
		var p pool[int]
		p.do = func(_ *kit, depth int) {
			n := inflight.Add(1)
			defer inflight.Add(-1)
			for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
			}
			ran.Add(1)
			runtime.Gosched()
			if depth < 7 {
				p.push(depth + 1)
				p.push(depth + 1)
			}
		}
		p.push(0)
		start := time.Now()
		busy := p.run()
		wall := time.Since(start)
		if ran.Load() != 1<<8-1 {
			t.Errorf("GOMAXPROCS=%d: %d jobs ran, want %d", procs, ran.Load(), 1<<8-1)
		}
		if peak.Load() > int64(procs) {
			t.Errorf("GOMAXPROCS=%d: %d jobs in flight at once", procs, peak.Load())
		}
		if busy <= 0 || busy > wall*time.Duration(procs) {
			t.Errorf("GOMAXPROCS=%d: %v of job time in %v of wall time", procs, busy, wall)
		}
		waitGoroutines(t, base, fmt.Sprintf("GOMAXPROCS=%d", procs))
	}
}

// fitOne is a Fit of one problem.
func fitOne(zoo []Factory, X [][]float64, targets []Target, sel, k int, seed int64, key func(Score) float64) ([]Fitted, time.Duration, error) {
	out, errs, busy := Fit([]Problem{{Factories: zoo, X: X, Targets: targets, Sel: sel, K: k, Seed: seed}}, key)
	return out[0], busy, errs[0]
}

// failsWhole trains like Linear on a fold but fails on the whole buffer (n
// rows), naming the target by its first value.
type failsWhole struct {
	Linear
	n int
}

func (m *failsWhole) Name() string { return "FailsWhole" }

func (m *failsWhole) Train(X [][]float64, y []float64) error {
	if len(X) == m.n {
		return fmt.Errorf("target starting %v: cannot train on the whole buffer", y[0])
	}
	return m.Linear.Train(X, y)
}

// A Fit is a Select on the prefix followed by one whole-buffer Train per
// target: the same selections bit for bit, the winner (or the incumbent, for a
// target that does not select) trained on all of X, at any worker count.
func TestFitMatchesSelectThenTrain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	X, y := synth(40, 3, 5, nonlinearFn, 0.3)
	ys := selectColumns(X, y)[:4]
	zoo := selectZoo(X, 3)
	const sel = 31
	targets := []Target{
		{Y: ys[0], Family: 2, Select: true},
		{Y: ys[1], Family: 7},
		{Y: ys[2], Family: -1, Select: true},
		{Y: ys[3], Family: 13, Select: true},
	}
	var prefixes [][]float64
	var leads []int
	for _, tg := range targets {
		if tg.Select {
			prefixes, leads = append(prefixes, tg.Y[:sel]), append(leads, tg.Family)
		}
	}
	want, err := Select(zoo, X[:sel], prefixes, leads, 5, 8, ByRelErr)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		base := runtime.NumGoroutine()
		got, busy, err := fitOne(zoo, X, targets, sel, 5, 8, ByRelErr)
		if err != nil || busy <= 0 {
			t.Fatalf("GOMAXPROCS=%d: %v, %v of job time", procs, err, busy)
		}
		waitGoroutines(t, base, "a fit")
		s := 0
		for i, tg := range targets {
			fam := tg.Family
			if tg.Select {
				if err := sameSelections([]Selection{got[i].Selection}, want[s:s+1]); err != nil {
					t.Errorf("GOMAXPROCS=%d, target %d: %v", procs, i, err)
				}
				fam = want[s].Best
				s++
			}
			if got[i].Family != fam || got[i].Err != nil {
				t.Fatalf("GOMAXPROCS=%d, target %d: family %d, %v; want %d", procs, i, got[i].Family, got[i].Err, fam)
			}
			ref := zoo[fam]()
			if err := ref.Train(X, tg.Y); err != nil {
				t.Fatal(err)
			}
			for _, x := range X {
				if a, b := got[i].Model.Predict(x), ref.Predict(x); !sameBits(a, b) {
					t.Fatalf("GOMAXPROCS=%d, target %d: Predict = %v, a fresh %s trained on X says %v", procs, i, a, zoo[fam]().Name(), b)
				}
			}
		}
	}
}

// Targets whose whole-buffer Train fails do not stop the others, and which
// of them failed is reported per target whatever finishes first: targets 1
// and 3 fail (1 after a selection its failing family wins), 0 and 2 train.
func TestFitReportsEachTargetsTrainError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	X, y := synth(30, 2, 4, linearFn, 0)
	zoo := []Factory{
		func() Model { return NewKNN(3) },
		func() Model { return &failsWhole{Linear: *NewLinear(), n: len(X)} },
	}
	col := func(off float64) []float64 {
		out := make([]float64, len(y))
		for i, v := range y {
			out[i] = v + off
		}
		return out
	}
	targets := []Target{
		{Y: col(0), Family: 0},
		{Y: col(1000), Family: 0, Select: true},
		{Y: col(2000), Family: 0},
		{Y: col(3000), Family: 1},
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 10; rep++ {
			got, _, err := fitOne(zoo, X, targets, len(X), 5, 1, byRMSE)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range got {
				failed := i == 1 || i == 3
				if (f.Err != nil) != failed {
					t.Fatalf("GOMAXPROCS=%d: target %d (family %d) trained with error %v", procs, i, f.Family, f.Err)
				}
				if want := fmt.Sprintf("target starting %v: cannot train on the whole buffer", targets[i].Y[0]); failed && f.Err.Error() != want {
					t.Fatalf("GOMAXPROCS=%d: target %d failed with %q, want %q", procs, i, f.Err, want)
				}
			}
		}
	}
	if _, _, err := fitOne(zoo, X, []Target{{Y: y[1:]}}, len(X), 5, 1, byRMSE); err == nil {
		t.Error("a target with one value too few was accepted")
	}
}

// A target restricted to candidate families picks what the whole zoo picks
// whenever the whole zoo's winner is a candidate: the same family, the same
// bits for its score and for its model. Restricting removes families and no
// family's score depends on another's. On random streams over the default
// zoo, the output-size candidates (LinearRegression, LeastMedSq) and random
// candidate sets alternate; the streams whose winner lies outside are counted.
func TestFitWithCandidatesMatchesWholeZoo(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(26))
	const streams = 24
	outside := 0
	for s := range streams {
		runtime.GOMAXPROCS(1 + s%3)
		zoo := DefaultFactories(int64(s))
		n, dims := 6+rng.Intn(30), 2+rng.Intn(3)
		a, b := rng.Float64()*10, rng.Float64()*100
		fn := []func([]float64) float64{
			linearFn, nonlinearFn,
			func(x []float64) float64 { return math.Floor(a*x[0]) + b }, // an output size
		}[s%3]
		X, y := synth(n, dims, int64(s), fn, []float64{0, 0.1, 1}[rng.Intn(3)])
		cands := []int{0, 1}
		if s%2 == 1 {
			cands = cands[:0]
			for fam := range zoo {
				if rng.Intn(3) == 0 {
					cands = append(cands, fam)
				}
			}
		}
		lead := rng.Intn(len(zoo)+1) - 1
		full, _, err := fitOne(zoo, X, []Target{{Y: y, Family: lead, Select: true}}, n, 5, int64(s), ByRelErr)
		if err != nil {
			t.Fatal(err)
		}
		narrow, _, err := fitOne(zoo, X, []Target{{Y: y, Family: lead, Select: true, Families: cands}}, n, 5, int64(s), ByRelErr)
		if err != nil {
			t.Fatal(err)
		}
		f, g := full[0], narrow[0]
		if k := min(5, n); len(cands) > 0 && g.Selection.Trained+g.Selection.Skipped != len(cands)*k {
			t.Errorf("stream %d: %d + %d cells for %d candidates", s, g.Selection.Trained, g.Selection.Skipped, len(cands))
		}
		c := slices.Index(cands, f.Family)
		if len(cands) == 0 {
			c = f.Family
		}
		if c < 0 {
			outside++
			continue
		}
		if g.Family != f.Family || !sameScore(g.Selection.Scores[c], f.Selection.Scores[f.Family]) {
			t.Fatalf("stream %d, candidates %v: picked %d (%+v), the whole zoo %d (%+v)",
				s, cands, g.Family, g.Selection.Scores, f.Family, f.Selection.Scores[f.Family])
		}
		for _, x := range X {
			if p, q := g.Model.Predict(x), f.Model.Predict(x); !sameBits(p, q) {
				t.Fatalf("stream %d: the narrowed %s predicts %v, the whole zoo's %v", s, g.Model.Name(), p, q)
			}
		}
	}
	t.Logf("%d of %d streams won outside their candidates", outside, streams)
	if outside == streams {
		t.Error("no stream's winner was a candidate")
	}
}

// A Fit of several problems is each problem fitted alone: the same Selection
// (Scores, Best, Trained, Skipped), family, error and prediction bits on probe
// rows, at every worker count. The problems differ in rows, width, zoo, folds,
// seed, selection prefix and targets, one shares its zoo with the problem
// before it, and one fails validation without touching the others.
func TestFitOfSeveralProblemsMatchesEachAlone(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(44))
	var problems []Problem
	for i := range 7 {
		n, dims := 6+rng.Intn(40), 2+rng.Intn(3)
		X, y := synth(n, dims, int64(i), nonlinearFn, 0.2)
		zoo := selectZoo(X, int64(i))
		if i == 4 {
			zoo = DefaultFactories(int64(i)) // other family names
		}
		if i == 3 {
			zoo = problems[2].Factories // the previous problem's zoo: shared names
			X, y = synth(len(problems[2].X), len(problems[2].X[0]), int64(i), nonlinearFn, 0.2)
		}
		cols := selectColumns(X, y)
		var targets []Target
		for t, col := range cols[:1+rng.Intn(len(cols))] {
			tg := Target{Y: col, Family: rng.Intn(len(zoo)+1) - 1, Select: rng.Intn(3) > 0}
			if t%2 == 1 {
				tg.Families = []int{0, 2, 7}
			}
			if !tg.Select && tg.Family < 0 {
				tg.Family = 0
			}
			targets = append(targets, tg)
		}
		if i == 5 {
			targets = append(targets, Target{Y: y[1:], Select: true}) // one value too few
		}
		problems = append(problems, Problem{Factories: zoo, X: X, Targets: targets, Sel: 2 + rng.Intn(len(X)-1), K: 2 + rng.Intn(5), Seed: int64(100 + i)})
	}
	runtime.GOMAXPROCS(1)
	want := make([][]Fitted, len(problems))
	wantErr := make([]error, len(problems))
	for i, pb := range problems {
		out, errs, _ := Fit([]Problem{pb}, ByRelErr)
		want[i], wantErr[i] = out[0], errs[0]
	}
	if wantErr[5] == nil {
		t.Fatal("a target with one value too few was accepted")
	}
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		base := runtime.NumGoroutine()
		got, errs, busy := Fit(problems, ByRelErr)
		if busy <= 0 {
			t.Fatalf("GOMAXPROCS=%d: %v of job time", procs, busy)
		}
		waitGoroutines(t, base, "a fit of several problems")
		for i, pb := range problems {
			if fmt.Sprint(errs[i]) != fmt.Sprint(wantErr[i]) || len(got[i]) != len(want[i]) {
				t.Fatalf("GOMAXPROCS=%d, problem %d: error %v and %d targets, alone %v and %d", procs, i, errs[i], len(got[i]), wantErr[i], len(want[i]))
			}
			probes, _ := synth(10, len(pb.X[0]), int64(i)+1000, nonlinearFn, 0)
			for tg, f := range got[i] {
				w := want[i][tg]
				if err := sameSelections([]Selection{f.Selection}, []Selection{w.Selection}); err != nil || f.Family != w.Family || fmt.Sprint(f.Err) != fmt.Sprint(w.Err) {
					t.Fatalf("GOMAXPROCS=%d, problem %d, target %d: family %d (%v) %v, alone %d (%v)", procs, i, tg, f.Family, f.Err, err, w.Family, w.Err)
				}
				if f.Model == nil {
					continue
				}
				for _, x := range append(probes, pb.X...) {
					if a, b := f.Model.Predict(x), w.Model.Predict(x); !sameBits(a, b) {
						t.Fatalf("GOMAXPROCS=%d, problem %d, target %d: Predict = %v, alone %v", procs, i, tg, a, b)
					}
				}
			}
		}
	}
}
