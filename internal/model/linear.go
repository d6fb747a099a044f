package model

import "math"

// Linear is ordinary least-squares linear regression over standardized
// features, with an intercept and a whisper of ridge regularisation.
// Standardization matters: the platform's raw features span nine orders of
// magnitude (bytes vs core counts) and include exactly collinear and
// constant columns, which wreck an unconditioned normal-equation solve.
type Linear struct {
	weights []float64 // last entry is the intercept
	std     standardizer
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
	return l.fit(new(lsq), X, y)
}

// fit trains l on the validated (X, y) with s as scratch, reusing l's
// buffers when they have X's width: the standardizer fitStandardizer would
// fit, then the normal equations over the standardized rows plus a column of
// ones, solved under l.ridge or, for a degenerate design, under 1e-4. On
// failure l is left untrained.
func (l *Linear) fit(s *lsq, X [][]float64, y []float64) error {
	dims := len(X[0])
	if len(l.std.mean) != dims {
		buf := make([]float64, 3*dims+1)
		l.std.mean, l.std.scale, l.weights = buf[:dims], buf[dims:2*dims], buf[2*dims:]
	}
	l.std.fit(X)
	s.reset(dims + 1)
	mean, scale, row := l.std.mean, l.std.scale, s.row
	row[dims] = 1
	for r, x := range X {
		for j, v := range x[:dims] {
			row[j] = (v - mean[j]) * scale[j]
		}
		s.add(row, y[r])
	}
	if s.solve(l.ridge, l.weights) || s.solve(1e-4, l.weights) {
		return nil
	}
	l.weights, l.std = nil, standardizer{}
	return errNotPD
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
	// One set of buffers for all subsamples: a subsample is fitted into cand,
	// which swaps with best when its median is smaller, and every fit shares
	// the solver scratch s. pred and res are scratch for the median and perm
	// for the draws.
	var s lsq
	cand, best := NewLinear(), NewLinear()
	found, bestMed := false, 0.0
	rows, group := distinctRows(X)
	sx := make([][]float64, subset)
	sy := make([]float64, subset)
	pred := make([]float64, len(rows))
	res := make([]float64, n)
	perm := make([]int, n)
	for range l.samples {
		permInto(rng, perm)
		for i, j := range perm[:subset] {
			sx[i], sy[i] = X[j], y[j]
		}
		if cand.fit(&s, sx, sy) != nil {
			continue
		}
		for g, x := range rows {
			pred[g] = cand.Predict(x)
		}
		if med := medianSquaredResidual(pred, group, y, res); !found || med < bestMed {
			cand, best = best, cand
			found, bestMed = true, med
		}
	}
	if !found {
		if err := best.fit(&s, X, y); err != nil {
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

// medianSquaredResidual returns the len(y)/2-th smallest squared residual
// of the predictions against y — what sorting them with sort.Float64s and
// indexing would, NaNs ordered first. The rows are given as distinctRows
// groups them, with pred[g] the prediction for distinct row g; res (len(y)
// long) is scratch for the residuals, taken row by row in order.
func medianSquaredResidual(pred []float64, group []int, y, res []float64) float64 {
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
