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
	// the solver scratch s. The rows are grouped once, into distinct rows
	// (pred holds a subsample fit's prediction for each) and into distinct
	// (row, target) pairs for the median; perm is scratch for the draws.
	var s lsq
	cand, best := NewLinear(), NewLinear()
	found, bestMed := false, 0.0
	rows, group := distinctRows(X)
	med := newResidualPairs(group, y)
	sx := make([][]float64, subset)
	sy := make([]float64, subset)
	pred := make([]float64, len(rows))
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
		if m := med.median(pred); !found || m < bestMed {
			cand, best = best, cand
			found, bestMed = true, m
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

// residualPairs groups the rows of a LeastMedSq Train by (distinct row, bits
// of the target): every row of a pair has the same squared residual under any
// fit, bit for bit, so the median takes each pair once, weighted by its row
// count, instead of every row.
type residualPairs struct {
	pairs []residualPair // in no particular order: median reorders them
	n     int            // rows
}

type residualPair struct {
	row   int // the distinct row, an index into the predictions
	y     float64
	count int
	sq    float64 // scratch: the squared residual under the fit at hand
}

// newResidualPairs groups rows given as distinctRows groups them (group[i]
// is row i's distinct row) with their targets y. An open-addressing table of
// pair indices does the grouping, as in distinctRows.
func newResidualPairs(group []int, y []float64) residualPairs {
	r := residualPairs{pairs: make([]residualPair, 0, len(y)), n: len(y)}
	bits := 1
	for 1<<bits < 2*len(y) {
		bits++
	}
	table := make([]int32, 1<<bits) // pair index + 1; 0 is an empty slot
	mask := uint64(len(table) - 1)
	for i, g := range group {
		yb := math.Float64bits(y[i])
		h := (uint64(g)*0x9e3779b97f4a7c15 ^ yb) * 0x9e3779b97f4a7c15
		for slot := h >> (64 - bits); ; slot = (slot + 1) & mask {
			p := int(table[slot]) - 1
			if p < 0 {
				table[slot] = int32(len(r.pairs) + 1)
				r.pairs = append(r.pairs, residualPair{row: g, y: y[i], count: 1})
				break
			}
			if q := &r.pairs[p]; q.row == g && math.Float64bits(q.y) == yb {
				q.count++
				break
			}
		}
	}
	return r
}

// median returns the n/2-th smallest squared residual of the rows, with
// pred[g] the prediction for distinct row g — what sorting the n per-row
// residuals with sort.Float64s and indexing would, NaNs ordered first.
func (r *residualPairs) median(pred []float64) float64 {
	a, nans, nanPairs := r.pairs, 0, 0
	for i := range a {
		d := pred[a[i].row] - a[i].y
		if a[i].sq = d * d; math.IsNaN(a[i].sq) {
			nans += a[i].count
			a[i], a[nanPairs] = a[nanPairs], a[i]
			nanPairs++
		}
	}
	k := r.n / 2
	if k < nans {
		return math.NaN()
	}
	return selectKthWeighted(a[nanPairs:], k-nans)
}

// selectKthWeighted returns the k-th smallest (0-based) squared residual of
// the rows of the NaN-free pairs a, which hold more than k rows, reordering
// a: quickselect, median-of-three pivot, Hoare partition, as an unweighted
// select over the rows would, but with a pair's rows moving as one. The
// squares are never -0, so equal values have equal bits and the result is
// the bits of the k-th element of the sorted rows. It draws no random
// numbers, so callers' random streams are untouched.
func selectKthWeighted(a []residualPair, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid].sq < a[lo].sq {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi].sq < a[lo].sq {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi].sq < a[mid].sq {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid].sq
		i, j := lo, hi
		for i <= j {
			for a[i].sq < pivot {
				i++
			}
			for pivot < a[j].sq {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] <= pivot, a[j+1..i-1] == pivot, a[i..hi] >= pivot.
		below := 0
		for _, p := range a[lo : j+1] {
			below += p.count
		}
		equal := 0
		for _, p := range a[j+1 : i] {
			equal += p.count
		}
		switch {
		case k < below:
			hi = j
		case k < below+equal:
			return pivot
		default:
			k -= below + equal
			lo = i
		}
	}
	return a[lo].sq
}
