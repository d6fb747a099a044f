package model

import "math"

// Linear is ordinary least-squares linear regression over standardized
// features, with an intercept and a whisper of ridge regularisation.
// Standardization matters: the platform's raw features span nine orders of
// magnitude (bytes vs core counts) and include exactly collinear and
// constant columns, which wreck an unconditioned normal-equation solve.
type Linear struct {
	weights []float64 // last entry is the intercept
	std     *standardizer
	ridge   float64
}

// NewLinear returns an untrained linear regressor.
func NewLinear() *Linear { return &Linear{ridge: 1e-9} }

// Name implements Model.
func (l *Linear) Name() string { return "LinearRegression" }

// Train implements Model.
func (l *Linear) Train(X [][]float64, y []float64) error {
	if _, err := validate(X, y); err != nil {
		return err
	}
	l.std = fitStandardizer(X)
	aug := augment(l.std.applyAll(X))
	w, err := normalEquations(aug, y, l.ridge)
	if err != nil {
		// Degenerate design: escalate regularisation.
		w, err = normalEquations(aug, y, 1e-4)
		if err != nil {
			return err
		}
	}
	l.weights = w
	return nil
}

// Predict implements Model. It allocates nothing: each feature is
// standardized where it is used.
func (l *Linear) Predict(x []float64) float64 {
	if l.weights == nil {
		return 0
	}
	dims := min(len(l.weights)-1, len(x))
	mean, scale := l.std.mean[:dims], l.std.scale[:dims]
	s := l.weights[len(l.weights)-1]
	for i, v := range x[:dims] {
		s += l.weights[i] * ((v - mean[i]) * scale[i])
	}
	return s
}

// augment appends the constant-1 intercept column.
func augment(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		r := make([]float64, len(row)+1)
		copy(r, row)
		r[len(row)] = 1
		out[i] = r
	}
	return out
}

// LeastMedianSquares is the robust regression flavour WEKA exposes
// (Rousseeuw & Leroy): it fits OLS on many random subsamples and keeps the
// fit with the smallest median squared residual, which shrugs off the
// outlier runs a busy cluster produces.
type LeastMedianSquares struct {
	inner   *Linear
	seed    int64
	samples int
}

// NewLeastMedianSquares returns an untrained LMS regressor.
func NewLeastMedianSquares(seed int64) *LeastMedianSquares {
	return &LeastMedianSquares{seed: seed, samples: 40}
}

// Name implements Model.
func (l *LeastMedianSquares) Name() string { return "LeastMedSq" }

// Train implements Model.
func (l *LeastMedianSquares) Train(X [][]float64, y []float64) error {
	dims, err := validate(X, y)
	if err != nil {
		return err
	}
	n := len(X)
	subset := dims + 2 // minimal sample size for a determined fit
	if subset >= n {
		// Too few points for subsampling: plain OLS.
		l.inner = NewLinear()
		return l.inner.Train(X, y)
	}
	rng := newRand(l.seed)
	var best *Linear
	bestMed := 0.0
	// One set of buffers for all subsamples: Linear.Train keeps neither sx
	// nor sy, pred and res are scratch for the median and perm for the draws.
	rows, group := distinctRows(X)
	sx := make([][]float64, subset)
	sy := make([]float64, subset)
	pred := make([]float64, len(rows))
	res := make([]float64, n)
	perm := make([]int, n)
	for s := 0; s < l.samples; s++ {
		permInto(rng, perm)
		for i, j := range perm[:subset] {
			sx[i], sy[i] = X[j], y[j]
		}
		cand := NewLinear()
		if err := cand.Train(sx, sy); err != nil {
			continue
		}
		med := medianSquaredResidual(cand, rows, group, y, pred, res)
		if best == nil || med < bestMed {
			best, bestMed = cand, med
		}
	}
	if best == nil {
		best = NewLinear()
		if err := best.Train(X, y); err != nil {
			return err
		}
	}
	l.inner = best
	return nil
}

// Predict implements Model.
func (l *LeastMedianSquares) Predict(x []float64) float64 {
	if l.inner == nil {
		return 0
	}
	return l.inner.Predict(x)
}

// medianSquaredResidual returns the len/2-th smallest squared residual of m
// over (X, y) — what sorting them with sort.Float64s and indexing would,
// NaNs ordered first. X is given as distinctRows returns it: m predicts each
// distinct row once, into pred (len(rows) long), and res (len(y) long) is
// scratch for the residuals, taken row by row in order.
func medianSquaredResidual(m Model, rows [][]float64, group []int, y, pred, res []float64) float64 {
	for g, x := range rows {
		pred[g] = m.Predict(x)
	}
	nans := 0
	for i, g := range group {
		d := pred[g] - y[i]
		res[i] = d * d
		if math.IsNaN(res[i]) {
			res[i], res[nans] = res[nans], res[i]
			nans++
		}
	}
	k := len(res) / 2
	if k < nans {
		return math.NaN()
	}
	return selectKth(res[nans:], k-nans)
}

// selectKth returns the k-th smallest (0-based) of the NaN-free a, reordering
// it: quickselect, median-of-three pivot, Hoare partition. It draws no random
// numbers, so callers' random streams are untouched.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for pivot < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}
