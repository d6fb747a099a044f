package model

import "math"

// GaussianProcess is GP regression with an RBF kernel over standardized
// features — the "Gaussian Process" entry of the paper's model list. The
// posterior mean is computed via a Cholesky solve of (K + noise*I).
type GaussianProcess struct {
	lengthScale float64
	noise       float64

	std   *standardizer
	tgt   *targetScaler
	Z     [][]float64
	alpha []float64
}

// NewGaussianProcess returns an untrained GP with the given RBF length
// scale and observation-noise variance.
func NewGaussianProcess(lengthScale, noise float64) *GaussianProcess {
	if lengthScale <= 0 {
		lengthScale = 1
	}
	if noise <= 0 {
		noise = 1e-4
	}
	return &GaussianProcess{lengthScale: lengthScale, noise: noise}
}

// Name implements Model.
func (g *GaussianProcess) Name() string { return "GaussianProcess" }

func (g *GaussianProcess) kernel(a, b []float64) float64 {
	return math.Exp(-sqDist(a, b) / (2 * g.lengthScale * g.lengthScale))
}

// Train implements Model.
func (g *GaussianProcess) Train(X [][]float64, y []float64) error {
	if _, err := validate(X, y); err != nil {
		return err
	}
	g.std = fitStandardizer(X)
	g.tgt = fitTargetScaler(y)
	g.Z = g.std.applyAll(X)
	n := len(g.Z)
	var s lsq
	s.reset(n)
	for i, v := range y {
		s.b[i] = g.tgt.encode(v)
		for j := 0; j <= i; j++ {
			s.a[i*n+j] = g.kernel(g.Z[i], g.Z[j])
		}
	}
	alpha := make([]float64, n)
	if !s.solve(g.noise, alpha) {
		return errNotPD
	}
	g.alpha = alpha
	return nil
}

// Predict implements Model.
func (g *GaussianProcess) Predict(x []float64) float64 {
	if g.alpha == nil {
		return 0
	}
	z := g.std.apply(x)
	s := 0.0
	for i, zi := range g.Z {
		s += g.alpha[i] * g.kernel(z, zi)
	}
	return g.tgt.decode(s)
}
