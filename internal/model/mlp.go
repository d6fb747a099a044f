package model

import "math"

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
	w1     []float64 // hidden rows of dims+1, the bias last
	w2     []float64 // hidden+1
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

// Train implements Model. The weights are flat rows, w1[h*(dims+1):][:dims+1]
// per hidden unit, and every sum adds its terms in the order of the obvious
// nested-slice loop, so the trained bits do not depend on the layout.
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

	rng := newRand(m.seed)
	stride := dims + 1
	m.w1 = make([]float64, m.hidden*stride)
	for i := range m.w1 {
		m.w1[i] = rng.NormFloat64() * 0.5
	}
	m.w2 = make([]float64, m.hidden+1)
	for j := range m.w2 {
		m.w2[j] = rng.NormFloat64() * 0.5
	}

	n := float64(len(Z))
	hidden, w1, w2 := m.hidden, m.w1, m.w2
	act := make([]float64, hidden+1)
	g1 := make([]float64, len(w1))
	g2 := make([]float64, len(w2))
	for epoch := 0; epoch < m.epochs; epoch++ {
		clear(g1)
		clear(g2)
		for i, z := range Z {
			z = z[:dims]
			// Forward.
			for h := range hidden {
				row := w1[h*stride:][:stride]
				s := row[dims]
				for j, w := range row[:dims] {
					s += w * z[j]
				}
				act[h] = math.Tanh(s)
			}
			act[hidden] = 1
			out := dot(act, w2)
			// Backward.
			errOut := out - T[i]
			for h, a := range act {
				g2[h] += errOut * a
			}
			for h, a := range act[:hidden] {
				dh := errOut * w2[h] * (1 - a*a)
				row := g1[h*stride:][:stride]
				grad := row[:dims]
				for j := range grad {
					grad[j] += dh * z[j]
				}
				row[dims] += dh
			}
		}
		for h, g := range g2 {
			w2[h] -= m.lr * g / n
		}
		for i, g := range g1 {
			w1[i] -= m.lr * g / n
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
	stride := m.inDims + 1
	act := make([]float64, m.hidden+1)
	for h := 0; h < m.hidden; h++ {
		row := m.w1[h*stride : h*stride+stride]
		s := row[m.inDims]
		for j := 0; j < m.inDims && j < len(z); j++ {
			s += row[j] * z[j]
		}
		act[h] = math.Tanh(s)
	}
	act[m.hidden] = 1
	return m.tgt.decode(dot(act, m.w2))
}
