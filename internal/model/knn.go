package model

import (
	"math"
	"sort"
)

// KNN is an inverse-distance-weighted k-nearest-neighbour regressor over
// standardized features — the "interpolation" technique of the paper's
// model list. With k=1 it reproduces profiled points exactly.
type KNN struct {
	k   int
	std *standardizer
	X   [][]float64
	y   []float64
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
func (m *KNN) Train(X [][]float64, y []float64) error {
	if _, err := validate(X, y); err != nil {
		return err
	}
	m.std = fitStandardizer(X)
	m.X = m.std.applyAll(X)
	m.y = clone1D(y)
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
	sort.Slice(nbs, func(i, j int) bool { return nbs[i].d < nbs[j].d })
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
