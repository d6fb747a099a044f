package model

import (
	"math"
	"slices"
)

// KNN is an inverse-distance-weighted k-nearest-neighbour regressor over
// standardized features — the "interpolation" technique of the paper's
// model list. With k=1 it reproduces profiled points exactly.
type KNN struct {
	k     int
	std   *standardizer
	X     [][]float64
	xflat []float64 // X's buffer
	y     []float64
}

// NewKNN returns an untrained kNN regressor with the given neighbourhood
// size (clamped to at least 1).
func NewKNN(k int) *KNN {
	if k < 1 {
		k = 1
	}
	return &KNN{k: k}
}

// Name implements Model.
func (m *KNN) Name() string { return "KNN" }

// Train implements Model. Training stores the standardized sample set.
func (m *KNN) Train(X [][]float64, y []float64) error { return m.train(new(scratch), X, y, nil) }

func (m *KNN) train(_ *scratch, X [][]float64, y []float64, _ *rowGroups) error {
	m.X = m.X[:0]
	dims, err := validate(X, y)
	if err != nil {
		return err
	}
	m.std = refitStandardizer(m.std, X)
	m.X = carve(&m.X, &m.xflat, len(X), dims)
	m.std.applyInto(m.X, X)
	copy(resize(&m.y, len(y)), y)
	return nil
}

// Predict implements Model.
func (m *KNN) Predict(x []float64) float64 {
	if len(m.X) == 0 {
		return 0
	}
	q := m.std.apply(x)
	type nb struct {
		d float64
		y float64
	}
	nbs := make([]nb, len(m.X))
	for i := range m.X {
		nbs[i] = nb{d: sqDist(q, m.X[i]), y: m.y[i]}
	}
	// Negative exactly when a.d < b.d, sort.Slice's less: the one pdqsort
	// template gives the same permutation, without the reflect swapper.
	slices.SortFunc(nbs, func(a, b nb) int {
		if a.d < b.d {
			return -1
		}
		if b.d < a.d {
			return 1
		}
		return 0
	})
	k := m.k
	if k > len(nbs) {
		k = len(nbs)
	}
	// Exact hit: return the stored value (1-NN interpolation property).
	if nbs[0].d == 0 {
		return nbs[0].y
	}
	num, den := 0.0, 0.0
	for i := 0; i < k; i++ {
		w := 1.0 / (math.Sqrt(nbs[i].d) + 1e-12)
		num += w * nbs[i].y
		den += w
	}
	return num / den
}
