package model

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// reuseShape is a training set reuse must survive: n rows of dims features
// drawn from pool distinct rows (repeats when pool < n), NaN targets or
// features when asked. n = 0 makes a Train fail its validation; NaN features
// make the least-squares and GP solves fail inside Train.
type reuseShape struct {
	n, dims, pool int
	nanY, nanX    bool
}

func (sh reuseShape) data(seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	distinct := make([][]float64, max(sh.pool, 1))
	for i := range distinct {
		distinct[i] = make([]float64, sh.dims)
		for j := range distinct[i] {
			distinct[i][j] = math.Round(rng.NormFloat64()*100) / 10
		}
	}
	X, y := make([][]float64, sh.n), make([]float64, sh.n)
	for i := range X {
		X[i] = distinct[rng.Intn(len(distinct))]
		y[i] = 3*X[i][0] - X[i][sh.dims-1] + rng.NormFloat64()
		if sh.nanY && i%4 == 1 {
			y[i] = math.NaN()
		}
	}
	if sh.nanX && sh.n > 0 {
		X[sh.n/2] = append([]float64{math.NaN()}, X[sh.n/2][1:]...)
	}
	return X, y
}

var reuseShapes = []reuseShape{
	{n: 40, dims: 4, pool: 40},
	{n: 25, dims: 3, pool: 6},              // duplicate rows
	{n: 3, dims: 6, pool: 3},               // n < dims
	{n: 30, dims: 5, pool: 30, nanY: true}, // NaN targets
	{n: 12, dims: 2, pool: 12, nanX: true}, // Trains that fail inside
	{n: 0, dims: 3},                        // Trains that fail validation
	{n: 60, dims: 7, pool: 20},
}

// sameTrain reports where a reused model's Train (err, m) differs from a fresh
// one's (wantErr, want): in its error, or in a prediction's bits on a probe.
func sameTrain(m Model, err error, want Model, wantErr error, probes [][]float64) error {
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		return fmt.Errorf("Train error %v, fresh %v", err, wantErr)
	}
	for _, x := range probes {
		if a, b := m.Predict(x), want.Predict(x); math.Float64bits(a) != math.Float64bits(b) {
			return fmt.Errorf("predicts %v at %v, fresh %v", a, x, b)
		}
	}
	return nil
}

// checkRetrain trains every default family on A and then on B three ways —
// Train twice on one receiver; as a kit's cell model, whose scratch every
// family trained on A, with B's rows grouped once for all of them; and as a
// fresh model trained in that used scratch — and holds each to a fresh
// model's Train on B, bit for bit.
func checkRetrain(t *testing.T, seed int64, a, b reuseShape) {
	t.Helper()
	XA, yA := a.data(seed)
	XB, yB := b.data(seed + 1)
	var probes [][]float64
	probes = append(append(probes, XA...), XB...)
	for i := range 5 {
		x := make([]float64, max(a.dims, b.dims))
		for j := range x {
			x[j] = float64(i*7+j*3)/5 - 2
		}
		probes = append(probes, x, x[:min(a.dims, b.dims)])
	}
	zoo := DefaultFactories(seed)
	k := new(kit)
	for _, fac := range zoo {
		m, _ := k.cellModel(fac())
		m.train(&k.scratch, XA, yA, nil)
	}
	rows := &rowGroups{X: XB}
	for _, fac := range zoo {
		want := fac()
		wantErr := want.Train(XB, yB)
		label := fmt.Sprintf("%s, %+v then %+v", want.Name(), a, b)

		m := fac()
		m.Train(XA, yA)
		if err := sameTrain(m, m.Train(XB, yB), want, wantErr, probes); err != nil {
			t.Fatalf("%s, Train twice: %v", label, err)
		}
		cell, _ := k.cellModel(fac())
		if err := sameTrain(cell, cell.train(&k.scratch, XB, yB, rows), want, wantErr, probes); err != nil {
			t.Fatalf("%s, a kit's cell model: %v", label, err)
		}
		whole, _ := ownTrainer(fac())
		if err := sameTrain(whole, whole.train(&k.scratch, XB, yB, rows), want, wantErr, probes); err != nil {
			t.Fatalf("%s, fresh in used scratch: %v", label, err)
		}
	}
}

// A model retrained in place, or trained in a worker's used scratch, predicts
// what a fresh one trained on the same data does, bit for bit, for every
// family of the default zoo: whatever it was trained on before, duplicate
// rows, n < dims, NaN targets and a Train that fails included.
func TestRetrainInPlaceMatchesFresh(t *testing.T) {
	for i, a := range reuseShapes {
		for j, b := range reuseShapes {
			checkRetrain(t, int64(10*i+j), a, b)
		}
	}
}

func FuzzRetrainInPlace(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(4), uint8(40), uint8(9), uint8(3), uint8(2), uint8(0))
	f.Add(int64(2), uint8(3), uint8(6), uint8(3), uint8(30), uint8(2), uint8(5), uint8(1))
	f.Add(int64(3), uint8(0), uint8(2), uint8(1), uint8(12), uint8(5), uint8(12), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nA, dA, pA, nB, dB, pB, nan uint8) {
		a := reuseShape{n: int(nA % 48), dims: 1 + int(dA%6), pool: 1 + int(pA%48), nanY: nan&1 != 0}
		b := reuseShape{n: int(nB % 48), dims: 1 + int(dB%6), pool: 1 + int(pB%48), nanX: nan&2 != 0}
		checkRetrain(t, seed, a, b)
	})
}

// fitBudget is the allocation count of one Fit of the default zoo on
// trainShape: a bounded selection of one target over all ten families and
// one over the two least-squares families, then the winners' whole-buffer
// Trains, on one worker with a warm kit. While every cell trained a model of
// its own, the count was 2,044; while RBFNetwork.Predict copied its input
// and activations and KNN.Predict sorted through sort.Slice, 241.
const fitBudget = 121

func TestFitAllocationBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	kits.Lock()
	kits.idle, kits.bytes = nil, 0
	kits.Unlock()
	X, y := trainShape()
	y2 := make([]float64, len(y))
	for i, v := range y {
		y2[i] = 2*v + 1
	}
	problems := []Problem{{
		Factories: DefaultFactories(42),
		X:         X,
		Targets:   []Target{{Y: y, Select: true}, {Y: y2, Select: true, Families: []int{0, 1}}},
		Sel:       len(X),
		K:         5,
		Seed:      42,
	}}
	if got := testing.AllocsPerRun(10, func() { Fit(problems, ByRelErr) }); got != fitBudget {
		t.Errorf("a Fit of the default zoo allocates %v times, pinned at %d", got, fitBudget)
	}
}
