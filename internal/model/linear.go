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

// linearRidge is the ridge of NewLinear's regressors.
const linearRidge = 1e-9

// NewLinear returns an untrained linear regressor.
func NewLinear() *Linear { return &Linear{ridge: linearRidge} }

// Name implements Model.
func (l *Linear) Name() string { return "LinearRegression" }

// Train implements Model.
func (l *Linear) Train(X [][]float64, y []float64) error { return l.train(new(scratch), X, y, nil) }

func (l *Linear) train(s *scratch, X [][]float64, y []float64, _ *rowGroups) error {
	if _, err := validate(X, y); err != nil {
		l.weights = nil
		return err
	}
	return l.fit(&s.lsq, X, y)
}

// shape cuts l's mean, scale and weights for dims features from one buffer,
// l's own when it is long enough.
func (l *Linear) shape(dims int) {
	buf := l.std.mean[:cap(l.std.mean)]
	if len(buf) < 3*dims+1 {
		buf = make([]float64, 3*dims+1)
	}
	l.std.mean, l.std.scale, l.weights = buf[:dims], buf[dims:2*dims], buf[2*dims:3*dims+1]
}

// copyFrom makes l the trained o.
func (l *Linear) copyFrom(o *Linear) {
	l.shape(len(o.std.mean))
	copy(l.std.mean, o.std.mean)
	copy(l.std.scale, o.std.scale)
	copy(l.weights, o.weights)
}

// fit trains l on the validated (X, y) with s as scratch, reusing l's
// buffers: X's columns standardized, then the normal
// equations over the standardized rows plus a column of ones, solved under
// l.ridge or, for a degenerate design, under 1e-4. On failure l is left
// untrained.
func (l *Linear) fit(s *lsq, X [][]float64, y []float64) error {
	dims := len(X[0])
	l.shape(dims)
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
	l.weights = nil
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
	return l.train(new(scratch), X, y, nil)
}

// train fits a subsample of dims+2 rows per draw into the scratch candidate
// s.cand, and copies the candidate into l.inner whenever its median is the
// smallest yet. The rows are grouped once, into distinct rows (s.pred holds a
// subsample fit's prediction for each) and into distinct (row, target) pairs
// for the median.
func (l *LeastMedianSquares) train(s *scratch, X [][]float64, y []float64, rg *rowGroups) error {
	dims, err := validate(X, y)
	if l.inner == nil {
		l.inner = NewLinear()
	}
	if err != nil {
		l.inner.weights = nil
		return err
	}
	n := len(X)
	subset := dims + 2 // minimal sample size for a determined fit
	if subset >= n {
		// Too few points for subsampling: plain OLS.
		return l.inner.fit(&s.lsq, X, y)
	}
	rng := s.rand(l.seed)
	g := s.groups(rg, X)
	s.med.of(g.group, y, &s.table)
	cand := &s.cand
	cand.ridge = linearRidge
	found, bestMed := false, 0.0
	sx, sy, perm := resize(&s.sub, subset), resize(&s.subY, subset), resize(&s.ints, subset)
	pred := resize(&s.pred, len(g.rows))
	for range l.samples {
		permPrefixInto(rng, n, perm)
		for i, j := range perm {
			sx[i], sy[i] = X[j], y[j]
		}
		if cand.fit(&s.lsq, sx, sy) != nil {
			continue
		}
		for r, x := range g.rows {
			pred[r] = cand.Predict(x)
		}
		if m := s.med.median(pred); !found || m < bestMed {
			l.inner.copyFrom(cand)
			found, bestMed = true, m
		}
	}
	if !found {
		return l.inner.fit(&s.lsq, X, y)
	}
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

// of regroups r, reusing its memory and *table, an open-addressing table of
// pair indices, as in grouping.of.
func (r *residualPairs) of(group []int, y []float64, table *[]int32) {
	r.pairs, r.n = resize(&r.pairs, len(y))[:0], len(y)
	bits := 1
	for 1<<bits < 2*len(y) {
		bits++
	}
	t := resize(table, 1<<bits) // pair index + 1; 0 is an empty slot
	clear(t)
	mask := uint64(len(t) - 1)
	for i, g := range group {
		yb := math.Float64bits(y[i])
		h := (uint64(g)*0x9e3779b97f4a7c15 ^ yb) * 0x9e3779b97f4a7c15
		for slot := h >> (64 - bits); ; slot = (slot + 1) & mask {
			p := int(t[slot]) - 1
			if p < 0 {
				t[slot] = int32(len(r.pairs) + 1)
				r.pairs = append(r.pairs, residualPair{row: g, y: y[i], count: 1})
				break
			}
			if q := &r.pairs[p]; q.row == g && math.Float64bits(q.y) == yb {
				q.count++
				break
			}
		}
	}
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
