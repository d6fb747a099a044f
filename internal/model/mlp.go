package model

import (
	"math"
	"math/rand"
)

// MLP is a single-hidden-layer multilayer perceptron with tanh activations,
// trained by full-batch gradient descent over standardized features and
// targets — WEKA's MultilayerPerceptron stand-in at the scale of profiling
// datasets.
type MLP struct {
	hidden int
	epochs int
	lr     float64
	seed   int64

	std    *standardizer
	tgt    *targetScaler
	w1     [][]float64 // hidden x (dims+1)
	w2     []float64   // hidden+1
	inDims int
}

// NewMLP returns an untrained perceptron with the given hidden width,
// epoch budget and learning rate.
func NewMLP(hidden, epochs int, lr float64, seed int64) *MLP {
	if hidden < 1 {
		hidden = 1
	}
	if epochs < 1 {
		epochs = 1
	}
	if lr <= 0 {
		lr = 0.01
	}
	return &MLP{hidden: hidden, epochs: epochs, lr: lr, seed: seed}
}

// Name implements Model.
func (m *MLP) Name() string { return "MultilayerPerceptron" }

// Train implements Model.
func (m *MLP) Train(X [][]float64, y []float64) error {
	dims, err := validate(X, y)
	if err != nil {
		return err
	}
	m.inDims = dims
	m.std = fitStandardizer(X)
	m.tgt = fitTargetScaler(y)
	Z := m.std.applyAll(X)
	T := make([]float64, len(y))
	for i, v := range y {
		T[i] = m.tgt.encode(v)
	}

	rng := rand.New(rand.NewSource(m.seed))
	m.w1 = make([][]float64, m.hidden)
	for h := range m.w1 {
		m.w1[h] = make([]float64, dims+1)
		for j := range m.w1[h] {
			m.w1[h][j] = rng.NormFloat64() * 0.5
		}
	}
	m.w2 = make([]float64, m.hidden+1)
	for j := range m.w2 {
		m.w2[j] = rng.NormFloat64() * 0.5
	}

	n := float64(len(Z))
	act := make([]float64, m.hidden+1)
	g1 := make([][]float64, m.hidden)
	for h := range g1 {
		g1[h] = make([]float64, dims+1)
	}
	g2 := make([]float64, m.hidden+1)
	for epoch := 0; epoch < m.epochs; epoch++ {
		for h := range g1 {
			clear(g1[h])
		}
		clear(g2)
		for i, z := range Z {
			// Forward.
			for h := 0; h < m.hidden; h++ {
				s := m.w1[h][dims]
				for j := 0; j < dims; j++ {
					s += m.w1[h][j] * z[j]
				}
				act[h] = math.Tanh(s)
			}
			act[m.hidden] = 1
			out := dot(act, m.w2)
			// Backward.
			errOut := out - T[i]
			for h := 0; h <= m.hidden; h++ {
				g2[h] += errOut * act[h]
			}
			for h := 0; h < m.hidden; h++ {
				dh := errOut * m.w2[h] * (1 - act[h]*act[h])
				for j := 0; j < dims; j++ {
					g1[h][j] += dh * z[j]
				}
				g1[h][dims] += dh
			}
		}
		for h := 0; h <= m.hidden; h++ {
			m.w2[h] -= m.lr * g2[h] / n
		}
		for h := 0; h < m.hidden; h++ {
			for j := 0; j <= dims; j++ {
				m.w1[h][j] -= m.lr * g1[h][j] / n
			}
		}
	}
	return nil
}

// Predict implements Model.
func (m *MLP) Predict(x []float64) float64 {
	if m.w1 == nil {
		return 0
	}
	z := m.std.apply(x)
	act := make([]float64, m.hidden+1)
	for h := 0; h < m.hidden; h++ {
		s := m.w1[h][m.inDims]
		for j := 0; j < m.inDims && j < len(z); j++ {
			s += m.w1[h][j] * z[j]
		}
		act[h] = math.Tanh(s)
	}
	act[m.hidden] = 1
	return m.tgt.decode(dot(act, m.w2))
}
