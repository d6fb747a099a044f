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
	w1     []float64 // hidden rows of dims+1, the bias last; nil until trained
	w1buf  []float64 // w1's buffer
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
func (m *MLP) Train(X [][]float64, y []float64) error { return m.train(new(scratch), X, y, nil) }

func (m *MLP) train(s *scratch, X [][]float64, y []float64, rg *rowGroups) error {
	m.w1 = nil
	dims, err := validate(X, y)
	if err != nil {
		return err
	}
	m.inDims = dims
	m.std = refitStandardizer(m.std, X)
	m.tgt = refitTargetScaler(m.tgt, y)
	g := s.groups(rg, X)
	Z := carve(&s.z, &s.zflat, len(g.rows), dims)
	m.std.applyInto(Z, g.rows)
	count, sumT := resize(&s.counts, len(Z)), resize(&s.vec, len(Z))
	clear(count)
	for i, gi := range g.group {
		// Seeded with the first target, not added to 0: 0 + -0 is +0.
		if t := m.tgt.encode(y[i]); count[gi] == 0 {
			sumT[gi] = t
		} else {
			sumT[gi] += t
		}
		count[gi]++
	}

	rng := s.rand(m.seed)
	stride := dims + 1
	w1 := resize(&m.w1buf, m.hidden*stride)
	for i := range w1 {
		w1[i] = rng.NormFloat64() * 0.5
	}
	w2 := resize(&m.w2, m.hidden+1)
	for j := range w2 {
		w2[j] = rng.NormFloat64() * 0.5
	}

	n := float64(len(X))
	hidden := m.hidden
	// The epoch's activations and gradients are allocated per Train, where
	// the model's weights are: held in a worker's reused memory instead, at
	// whatever distance from the weights that memory lies, the epoch loop
	// ran 12 % slower in tenant_mix's fits.
	act := make([]float64, hidden+1)
	g1, g2 := make([]float64, len(w1)), make([]float64, len(w2))
	for epoch := 0; epoch < m.epochs; epoch++ {
		clear(g1)
		clear(g2)
		for g, z := range Z {
			z = z[:dims]
			out := forward(w1, w2, z, act)
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
	m.w1 = w1
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

// forward is the forward pass of one standardized row z: the hidden layer's
// activations into act (hidden+1 long, the bias unit's 1 last) from the flat
// rows of w1, and the output sum over act and w2 in dot's order — the bias
// unit's term is 1·w2[hidden], which is w2[hidden]. Its tanh is the standard
// library's portable math.tanh, inlined branch for branch with the same
// constants (math.Tanh calls it behind an architecture switch and is too
// large to inline), so the activations are math.Tanh's bits.
func forward(w1, w2, z, act []float64) float64 {
	const (
		maxLog = 8.8029691931113054295988e+01 // log(2**127)
		p0     = -9.64399179425052238628e-1
		p1     = -9.92877231001918586564e1
		p2     = -1.61468768441708447952e3
		q0     = 1.12811678491632931402e2
		q1     = 2.23548839060100448583e3
		q2     = 4.84406305325125486048e3
	)
	dims, hidden := len(z), len(act)-1
	stride := dims + 1
	out := 0.0
	for h := range hidden {
		row := w1[h*stride:][:stride]
		x := row[dims]
		for j, w := range row[:dims] {
			x += w * z[j]
		}
		// a = tanh(x), as math.tanh computes it.
		var a float64
		switch z := math.Abs(x); {
		case z > 0.5*maxLog:
			a = 1
			if x < 0 {
				a = -1
			}
		case z >= 0.625:
			s := math.Exp(2 * z)
			a = 1 - 2/(s+1)
			if x < 0 {
				a = -a
			}
		case x == 0:
			a = x
		default:
			s := x * x
			a = x + x*s*((p0*s+p1)*s+p2)/(((s+q0)*s+q1)*s+q2)
		}
		act[h] = a
		out += a * w2[h]
	}
	act[hidden] = 1
	return out + w2[hidden]
}
