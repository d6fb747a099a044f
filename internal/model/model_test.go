package model

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// synth generates n samples of a target function over d dims with optional
// noise.
func synth(n, d int, seed int64, fn func(x []float64) float64, noise float64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64() * 10
		}
		X[i] = x
		y[i] = fn(x) + rng.NormFloat64()*noise
	}
	return X, y
}

func linearFn(x []float64) float64 { return 3*x[0] - 2*x[1] + 7 }

func nonlinearFn(x []float64) float64 {
	return 5*math.Sin(x[0]/2) + 0.5*x[1]*x[1]
}

func rmse(m Model, X [][]float64, y []float64) float64 {
	s := 0.0
	for i := range X {
		d := m.Predict(X[i]) - y[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(X)))
}

func allModels() []Factory { return DefaultFactories(7) }

func TestAllModelsTrainAndPredict(t *testing.T) {
	X, y := synth(80, 3, 1, linearFn, 0.5)
	tX, tY := synth(30, 3, 2, linearFn, 0)
	for _, fac := range allModels() {
		m := fac()
		if err := m.Train(X, y); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		e := rmse(m, tX, tY)
		// Everything should beat a constant-mean predictor on a clean
		// linear target.
		base := math.Sqrt(variance(tY))
		if e >= base {
			t.Errorf("%s: rmse %.2f not better than mean baseline %.2f", m.Name(), e, base)
		}
	}
}

// A feature vector wider than the training rows predicts as its first
// trained-width features do: every model ignores the features it never saw,
// on rows with and without repeats.
func TestPredictIgnoresFeaturesPastTrainedWidth(t *testing.T) {
	distinct, dy := synth(40, 2, 3, linearFn, 0.5)
	repeated, ry := repeatedRows(60, 6, 2, 4)
	for _, data := range []struct {
		name string
		X    [][]float64
		y    []float64
	}{{"distinct", distinct, dy}, {"repeated", repeated, ry}} {
		for _, fac := range allModels() {
			m := fac()
			if err := m.Train(data.X, data.y); err != nil {
				t.Fatalf("%s, %s: %v", data.name, m.Name(), err)
			}
			for _, x := range data.X[:5] {
				wide := append(slices.Clone(x), 100, -3)
				if got, want := m.Predict(wide), m.Predict(x); !sameBits(got, want) {
					t.Errorf("%s, %s: Predict(%v) = %v, Predict(%v) = %v", data.name, m.Name(), wide, got, x, want)
				}
			}
		}
	}
}

func TestLinearRecoverExact(t *testing.T) {
	X, y := synth(50, 2, 3, linearFn, 0)
	m := NewLinear()
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	for _, x := range [][]float64{{0, 0}, {1, 2}, {5, 5}} {
		want := linearFn(x)
		if got := m.Predict(x); math.Abs(got-want) > 1e-6 {
			t.Errorf("Predict(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestLeastMedianSquaresRobustToOutliers(t *testing.T) {
	X, y := synth(60, 2, 4, linearFn, 0.1)
	// Corrupt 15% of targets badly.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 9; i++ {
		y[rng.Intn(len(y))] += 500
	}
	ols := NewLinear()
	lms := NewLeastMedianSquares(6)
	if err := ols.Train(X, y); err != nil {
		t.Fatal(err)
	}
	if err := lms.Train(X, y); err != nil {
		t.Fatal(err)
	}
	tX, tY := synth(40, 2, 7, linearFn, 0)
	if el, eo := rmse(lms, tX, tY), rmse(ols, tX, tY); el >= eo {
		t.Errorf("LMS rmse %.2f not better than OLS %.2f under outliers", el, eo)
	}
}

func TestKNNExactInterpolation(t *testing.T) {
	X, y := synth(30, 2, 8, nonlinearFn, 0)
	m := NewKNN(3)
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if got := m.Predict(X[i]); math.Abs(got-y[i]) > 1e-9 {
			t.Fatalf("kNN not exact on training point %d: %v vs %v", i, got, y[i])
		}
	}
}

func TestTreeFitsNonlinear(t *testing.T) {
	X, y := synth(300, 2, 9, nonlinearFn, 0.1)
	m := NewTree(10, 2)
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	tX, tY := synth(80, 2, 10, nonlinearFn, 0)
	base := math.Sqrt(variance(tY))
	if e := rmse(m, tX, tY); e >= base*0.6 {
		t.Errorf("tree rmse %.2f vs baseline %.2f", e, base)
	}
}

func TestEnsemblesBeatSingleTreeOnNoisy(t *testing.T) {
	X, y := synth(200, 3, 11, nonlinearFn, 2.0)
	tX, tY := synth(100, 3, 12, nonlinearFn, 0)
	tree := NewTree(10, 1)
	bag := NewBagging(15, 13)
	if err := tree.Train(X, y); err != nil {
		t.Fatal(err)
	}
	if err := bag.Train(X, y); err != nil {
		t.Fatal(err)
	}
	if eb, et := rmse(bag, tX, tY), rmse(tree, tX, tY); eb >= et*1.1 {
		t.Errorf("bagging rmse %.2f much worse than single tree %.2f", eb, et)
	}
}

func TestGPInterpolatesSmooth(t *testing.T) {
	X, y := synth(60, 2, 14, nonlinearFn, 0.05)
	m := NewGaussianProcess(1.0, 0.05)
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	tX, tY := synth(40, 2, 15, nonlinearFn, 0)
	base := math.Sqrt(variance(tY))
	if e := rmse(m, tX, tY); e >= base*0.5 {
		t.Errorf("GP rmse %.2f vs baseline %.2f", e, base)
	}
}

func TestMLPLearnsLinear(t *testing.T) {
	X, y := synth(100, 2, 16, linearFn, 0.2)
	m := NewMLP(8, 400, 0.05, 17)
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	tX, tY := synth(40, 2, 18, linearFn, 0)
	base := math.Sqrt(variance(tY))
	if e := rmse(m, tX, tY); e >= base*0.5 {
		t.Errorf("MLP rmse %.2f vs baseline %.2f", e, base)
	}
}

func TestRBFNetwork(t *testing.T) {
	X, y := synth(120, 2, 19, nonlinearFn, 0.1)
	m := NewRBFNetwork(10, 20)
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	tX, tY := synth(40, 2, 21, nonlinearFn, 0)
	base := math.Sqrt(variance(tY))
	if e := rmse(m, tX, tY); e >= base*0.8 {
		t.Errorf("RBF rmse %.2f vs baseline %.2f", e, base)
	}
}

func TestDiscretizedBounded(t *testing.T) {
	X, y := synth(100, 2, 22, nonlinearFn, 0.1)
	m := NewDiscretized(6)
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range y {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	tX, _ := synth(50, 2, 23, nonlinearFn, 0)
	for _, x := range tX {
		p := m.Predict(x)
		if p < lo-1e-9 || p > hi+1e-9 {
			t.Fatalf("discretized prediction %v outside target range [%v,%v]", p, lo, hi)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	for _, fac := range allModels() {
		m := fac()
		if err := m.Train(nil, nil); err == nil {
			t.Errorf("%s: nil data accepted", m.Name())
		}
		if err := m.Train([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
			t.Errorf("%s: row/target mismatch accepted", m.Name())
		}
		if err := m.Train([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
			t.Errorf("%s: ragged rows accepted", m.Name())
		}
		// Untrained prediction is 0, not a panic.
		if got := fac().Predict([]float64{1, 2}); got != 0 {
			t.Errorf("%s: untrained Predict = %v", m.Name(), got)
		}
	}
}

func TestSingleSampleTraining(t *testing.T) {
	// All models must survive a one-point dataset (first profiling run).
	for _, fac := range allModels() {
		m := fac()
		if err := m.Train([][]float64{{2, 3}}, []float64{10}); err != nil {
			t.Errorf("%s: single-sample train failed: %v", m.Name(), err)
			continue
		}
		if p := m.Predict([]float64{2, 3}); math.IsNaN(p) || math.IsInf(p, 0) {
			t.Errorf("%s: single-sample predict = %v", m.Name(), p)
		}
	}
}

func TestConstantTarget(t *testing.T) {
	X, _ := synth(20, 2, 24, linearFn, 0)
	y := make([]float64, len(X))
	for i := range y {
		y[i] = 42
	}
	for _, fac := range allModels() {
		m := fac()
		if err := m.Train(X, y); err != nil {
			t.Errorf("%s: constant target train failed: %v", m.Name(), err)
			continue
		}
		if p := m.Predict(X[0]); math.Abs(p-42) > 1.0 {
			t.Errorf("%s: constant target predict = %v, want ~42", m.Name(), p)
		}
	}
}

func TestConstantFeature(t *testing.T) {
	// One feature never varies (e.g. all profiling runs used 16 nodes).
	rng := rand.New(rand.NewSource(25))
	X := make([][]float64, 40)
	y := make([]float64, 40)
	for i := range X {
		v := rng.Float64() * 10
		X[i] = []float64{v, 5.0}
		y[i] = 2 * v
	}
	for _, fac := range allModels() {
		m := fac()
		if err := m.Train(X, y); err != nil {
			t.Errorf("%s: constant feature train failed: %v", m.Name(), err)
			continue
		}
		if p := m.Predict([]float64{3, 5}); math.IsNaN(p) {
			t.Errorf("%s: NaN prediction with constant feature", m.Name())
		}
	}
}

func TestCrossValidateSelectsReasonably(t *testing.T) {
	X, y := synth(80, 2, 26, linearFn, 0.1)
	fitted, _, err := fitOne(DefaultFactories(1), X, []Target{{Y: y, Select: true}}, len(X), 5, 2, byRMSE)
	if err != nil {
		t.Fatal(err)
	}
	m, scores := fitted[0].Model, fitted[0].Selection.Scores
	if len(scores) != len(DefaultFactories(1)) {
		t.Fatalf("scores = %d", len(scores))
	}
	// On a clean linear target the winner must predict well.
	tX, tY := synth(40, 2, 27, linearFn, 0)
	base := math.Sqrt(variance(tY))
	if e := rmse(m, tX, tY); e > base*0.3 {
		t.Errorf("selected model %s rmse %.3f vs baseline %.3f", m.Name(), e, base)
	}
}

func TestCrossValidateErrors(t *testing.T) {
	if _, err := CrossValidate(allModels(), nil, nil, 5, 1); err == nil {
		t.Fatal("nil data accepted")
	}
}

func TestCrossValidateSmallN(t *testing.T) {
	X, y := synth(3, 2, 28, linearFn, 0)
	if _, _, err := SelectBestRelative([]Factory{func() Model { return NewLinear() }}, X, y, 10, 1); err != nil {
		t.Fatalf("small-n CV failed: %v", err)
	}
}

// needsRow is a family that cannot train on a fold that holds out the row
// whose first feature is marker.
type needsRow struct {
	Model
	marker float64
}

func (m needsRow) Name() string { return "NeedsRow" }

func (m needsRow) Train(X [][]float64, y []float64) error {
	for _, row := range X {
		if row[0] == m.marker {
			return m.Model.Train(X, y)
		}
	}
	return errors.New("needsRow: marker row held out")
}

// Workers are invisible: the cells run on GOMAXPROCS goroutines but are
// reduced in (family, fold, sample) order, so every Score is bit-identical
// whatever the worker count — including the +Inf penalty of a family that
// fails on one fold, and k clamped to the sample count.
func TestCrossValidateWorkerCountInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	X, y := synth(23, 3, 31, nonlinearFn, 0.2)
	zoo := append(DefaultFactories(5), func() Model { return needsRow{NewLinear(), X[7][0]} })
	cases := []struct {
		name string
		X    [][]float64
		y    []float64
		k    int
	}{
		{"five folds", X, y, 5},
		{"k beyond n", X[:3], y[:3], 10},
	}
	for _, tc := range cases {
		var want []Score
		for _, procs := range []int{1, 2, 7} {
			runtime.GOMAXPROCS(procs)
			got, err := CrossValidate(zoo, tc.X, tc.y, tc.k, 9)
			if err != nil {
				t.Fatalf("%s, GOMAXPROCS=%d: %v", tc.name, procs, err)
			}
			if want == nil {
				want = got
				if last := got[len(got)-1]; !math.IsInf(last.RMSE, 1) || !math.IsInf(last.RelErr, 1) {
					t.Errorf("%s: failing family scored %+v, want +Inf under both keys", tc.name, last)
				}
				continue
			}
			for i := range want {
				if got[i].Name != want[i].Name ||
					math.Float64bits(got[i].RMSE) != math.Float64bits(want[i].RMSE) ||
					math.Float64bits(got[i].RelErr) != math.Float64bits(want[i].RelErr) {
					t.Errorf("%s, GOMAXPROCS=%d: score %d = %+v, want %+v", tc.name, procs, i, got[i], want[i])
				}
			}
		}
	}
}

// Property: training is deterministic — two identical models trained on the
// same data give identical predictions.
func TestQuickDeterministicTraining(t *testing.T) {
	facs := allModels()
	f := func(seed int64, which uint8) bool {
		fac := facs[int(which)%len(facs)]
		X, y := synth(40, 3, seed, nonlinearFn, 0.3)
		a, b := fac(), fac()
		if err := a.Train(X, y); err != nil {
			return true // acceptable failure, must just be consistent
		}
		if err := b.Train(X, y); err != nil {
			return false
		}
		probe, _ := synth(10, 3, seed+1, nonlinearFn, 0)
		for _, x := range probe {
			if a.Predict(x) != b.Predict(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: more data never makes the linear model catastrophically worse
// on a clean linear target (sanity of the normal-equation path).
func TestQuickLinearStability(t *testing.T) {
	f := func(seed int64) bool {
		n := 10 + int(uint64(seed)%90)
		X, y := synth(n, 2, seed, linearFn, 0)
		m := NewLinear()
		if err := m.Train(X, y); err != nil {
			return false
		}
		tX, tY := synth(20, 2, seed+1, linearFn, 0)
		return rmse(m, tX, tY) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The quickselect median is the order statistic sorting would index — ties,
// sorted and reversed runs, infinities and NaNs (which sort.Float64s orders
// first) included.
func TestMedianSquaredResidualMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	special := []float64{0, 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 1e-160, 2}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(4) {
			case 0:
				vals[i] = special[rng.Intn(len(special))]
			case 1:
				vals[i] = float64(rng.Intn(4)) // ties
			default:
				vals[i] = rng.NormFloat64()
			}
		}
		switch trial % 5 {
		case 1:
			sort.Float64s(vals)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		}
		X := make([][]float64, n)
		want := make([]float64, n)
		for i, v := range vals {
			X[i] = []float64{v}
			want[i] = v * v
		}
		sort.Float64s(want)
		// Each distinct row predicts its value, so the median over (X, 0) sees
		// exactly the squares of the values fed in.
		rows, group := distinctRows(X)
		pred := make([]float64, len(rows))
		for g, x := range rows {
			pred[g] = x[0]
		}
		med := newResidualPairs(group, make([]float64, n))
		got := med.median(pred)
		if w := want[n/2]; got != w && !(math.IsNaN(got) && math.IsNaN(w)) {
			t.Fatalf("trial %d: median of squares of %v = %v, sort says %v", trial, vals, got, w)
		}
	}
}

// BenchmarkMLPTrain is one cross-validation cell of the default zoo's most
// expensive family at a typical operator's depth: 100 rows, 6 features.
func BenchmarkMLPTrain(b *testing.B) {
	X, y := synth(100, 6, 1, nonlinearFn, 0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := NewMLP(8, 300, 0.05, 42).Train(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// trainShape is a shallow operator history: 27 rows of 6 features, about
// what each of tenant_mix's 96 operators has seen by the end of an episode.
func trainShape() ([][]float64, []float64) { return synth(27, 6, 1, nonlinearFn, 0.3) }

// Least squares and trees train in reused flat scratch, so the allocations
// of a Train do not grow with its fits or nodes: a LeastMedSq Train with its
// 40 subsample fits allocates at most 40 times, a Bagging of ten trees at
// most 700 (15 and 41 with go1.24).
func TestTrainAllocationCeilings(t *testing.T) {
	X, y := trainShape()
	newRand(42)
	for _, c := range []struct {
		f       Factory
		ceiling float64
	}{
		{func() Model { return NewLeastMedianSquares(42) }, 40},
		{func() Model { return NewBagging(10, 42) }, 700},
	} {
		if n := testing.AllocsPerRun(20, func() { c.f().Train(X, y) }); n > c.ceiling {
			t.Errorf("%s Train allocates %v times, want at most %v", c.f().Name(), n, c.ceiling)
		}
	}
}

// BenchmarkTrain is one whole-buffer Train of the least-squares and tree
// families at trainShape, the profiling handle for their kernels.
func BenchmarkTrain(b *testing.B) {
	X, y := trainShape()
	for _, c := range []struct {
		name string
		f    Factory
	}{
		{"LeastMedSq", func() Model { return NewLeastMedianSquares(42) }},
		{"Bagging", func() Model { return NewBagging(10, 42) }},
		{"Tree", func() Model { return NewTree(8, 2) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.f().Train(X, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
