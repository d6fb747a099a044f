package model

import "math"

// GaussianProcess is GP regression with an RBF kernel over standardized
// features — the "Gaussian Process" entry of the paper's model list. The
// posterior mean is computed via a Cholesky solve of (K + noise*I).
//
// Train solves that system over the distinct inputs only: with c_g copies of
// input z_g and ȳ_g the mean of their targets, the posterior mean of
// (K + noise·I) over every row equals that of (K_d + noise·C⁻¹) over the
// distinct inputs, K_d their kernel matrix and C = diag(c_g) — the
// replicate identity of stochastic kriging (Ankenman, Nelson & Staum 2010).
// It is exact in exact arithmetic; only the rounding differs. When every row
// is distinct (c = 1, ȳ the row's own target, groups in row order) the
// system and so the trained bits are those of the per-row solve.
type GaussianProcess struct {
	lengthScale float64
	noise       float64

	std   *standardizer
	tgt   *targetScaler
	Z     [][]float64 // the distinct standardized inputs, in first-appearance order
	zflat []float64   // Z's buffer
	alpha []float64   // nil until trained
	abuf  []float64   // alpha's buffer
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

// kernel is the RBF kernel of two inputs at squared distance d2.
func (g *GaussianProcess) kernel(d2 float64) float64 {
	return math.Exp(-d2 / (2 * g.lengthScale * g.lengthScale))
}

// Train implements Model. The standardizer and target scaler are fitted over
// every row; the system has one row per distinct input, noise/c_g on its
// diagonal and the group's mean encoded target on the right-hand side.
func (g *GaussianProcess) Train(X [][]float64, y []float64) error {
	return g.train(new(scratch), X, y, nil)
}

func (g *GaussianProcess) train(s *scratch, X [][]float64, y []float64, rg *rowGroups) error {
	g.alpha = nil
	dims, err := validate(X, y)
	if err != nil {
		return err
	}
	g.std = refitStandardizer(g.std, X)
	g.tgt = refitTargetScaler(g.tgt, y)
	grp := s.groups(rg, X)
	d := len(grp.rows)
	g.Z = carve(&g.Z, &g.zflat, d, dims)
	g.std.applyInto(g.Z, grp.rows)
	s.lsq.reset(d)
	count := resize(&s.counts, d)
	clear(count)
	for i, gi := range grp.group {
		// Seeded with the first target, not added to 0: 0 + -0 is +0.
		if t := g.tgt.encode(y[i]); count[gi] == 0 {
			s.lsq.b[gi] = t
		} else {
			s.lsq.b[gi] += t
		}
		count[gi]++
	}
	for i, zi := range g.Z {
		s.lsq.b[i] /= count[i]
		ai := s.lsq.a[i*d:][:i+1]
		for j := range ai {
			ai[j] = g.kernel(sqDist(zi, g.Z[j]))
		}
		ai[i] += g.noise / count[i]
	}
	alpha := resize(&g.abuf, d)
	if !s.lsq.solve(0, alpha) {
		return errNotPD
	}
	g.alpha = alpha
	return nil
}

// Predict implements Model. It allocates nothing: each feature is
// standardized where it is used, and features past the trained width are
// ignored.
func (g *GaussianProcess) Predict(x []float64) float64 {
	if g.alpha == nil {
		return 0
	}
	dims := min(len(x), len(g.std.mean))
	mean, scale := g.std.mean[:dims], g.std.scale[:dims]
	s := 0.0
	for i, zi := range g.Z {
		d2 := 0.0
		for j, v := range x[:dims] {
			dlt := (v-mean[j])*scale[j] - zi[j]
			d2 += dlt * dlt
		}
		s += g.alpha[i] * g.kernel(d2)
	}
	return g.tgt.decode(s)
}
