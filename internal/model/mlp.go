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
//
// An epoch visits each distinct row once, not each row: the gradient is
// linear in the output residual, so a group of c equal rows with targets
// summing to ΣT contributes (c·out − ΣT) times the one row's partials. When
// every row is distinct (c = 1, ΣT the row's own target, groups in row order)
// the trained bits are those of the per-row loop; with repeats only the
// rounding of the gradient sums differs.
func (m *MLP) Train(X [][]float64, y []float64) error {
	dims, err := validate(X, y)
	if err != nil {
		return err
	}
	m.inDims = dims
	m.std = fitStandardizer(X)
	m.tgt = fitTargetScaler(y)
	rows, group := distinctRows(X)
	Z := m.std.applyAll(rows)
	count := make([]float64, len(rows))
	sumT := make([]float64, len(rows))
	for i, g := range group {
		// Seeded with the first target, not added to 0: 0 + -0 is +0.
		if t := m.tgt.encode(y[i]); count[g] == 0 {
			sumT[g] = t
		} else {
			sumT[g] += t
		}
		count[g]++
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

	n := float64(len(X))
	hidden, w1, w2 := m.hidden, m.w1, m.w2
	act := make([]float64, hidden+1)
	g1 := make([]float64, len(w1))
	g2 := make([]float64, len(w2))
	for epoch := 0; epoch < m.epochs; epoch++ {
		clear(g1)
		clear(g2)
		for g, z := range Z {
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
			errOut := count[g]*out - sumT[g]
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

// Predict implements Model. It allocates nothing: each feature is
// standardized where it is used, and the output sum adds the hidden units in
// dot's order, the bias unit (activation 1) last.
func (m *MLP) Predict(x []float64) float64 {
	if m.w1 == nil {
		return 0
	}
	dims := min(m.inDims, len(x))
	mean, scale := m.std.mean[:dims], m.std.scale[:dims]
	stride := m.inDims + 1
	out := 0.0
	for h := 0; h < m.hidden; h++ {
		row := m.w1[h*stride:][:stride]
		s := row[m.inDims]
		for j, v := range x[:dims] {
			s += row[j] * ((v - mean[j]) * scale[j])
		}
		out += math.Tanh(s) * m.w2[h]
	}
	out += m.w2[m.hidden]
	return m.tgt.decode(out)
}
