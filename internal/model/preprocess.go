package model

import (
	"math"
	"sync"
)

// standardizer rescales features to zero mean and unit variance; constant
// features map to zero. Several models (kNN, RBF, MLP, GP) depend on it
// because the platform's raw features span wildly different magnitudes
// (record counts in the millions next to core counts below ten).
type standardizer struct {
	mean  []float64
	scale []float64
}

// refit fits s to X, reusing its memory: mean and scale share one buffer.
func (s *standardizer) refit(X [][]float64) {
	d := len(X[0])
	buf := s.mean[:cap(s.mean)]
	if len(buf) < 2*d {
		buf = make([]float64, 2*d)
	}
	s.mean, s.scale = buf[:d], buf[d:2*d]
	s.fit(X)
}

// refitStandardizer fits s, or a new standardizer when s is nil, to X.
func refitStandardizer(s *standardizer, X [][]float64) *standardizer {
	if s == nil {
		s = new(standardizer)
	}
	s.refit(X)
	return s
}

// fit sets s's mean and scale, each as long as X's rows, from X's columns.
func (s *standardizer) fit(X [][]float64) {
	for j := range s.mean {
		m := 0.0
		for _, row := range X {
			m += row[j]
		}
		m /= float64(len(X))
		v := 0.0
		for _, row := range X {
			dlt := row[j] - m
			v += dlt * dlt
		}
		v /= float64(len(X))
		s.mean[j] = m
		if sd := math.Sqrt(v); sd > 1e-12 {
			s.scale[j] = 1 / sd
		} else {
			s.scale[j] = 0 // constant feature: contributes nothing
		}
	}
}

// grouping is X's rows grouped by their bits: rows are the distinct rows in
// first-appearance order (aliasing X's) and group[i] is row i's index among
// them, so group[i] <= i. -0 and +0 are different rows; a NaN equals a NaN of
// the same payload.
type grouping struct {
	rows  [][]float64
	group []int
}

// of groups X's rows into g, reusing g's memory and *table, an
// open-addressing table of group indices: no allocation per row.
func (g *grouping) of(X [][]float64, table *[]int32) {
	rows := resize(&g.rows, len(X))[:0]
	group := resize(&g.group, len(X))
	bits := 1
	for 1<<bits < 2*len(X) {
		bits++
	}
	t := resize(table, 1<<bits) // group index + 1; 0 is an empty slot
	clear(t)
	mask := uint64(len(t) - 1)
	for i, x := range X {
		// Multiplicative hashing: the top bits of h depend on every bit of
		// every feature, which the low bits of integral floats would not.
		h := uint64(len(x))
		for _, v := range x {
			h = (h ^ math.Float64bits(v)) * 0x9e3779b97f4a7c15
		}
		for slot := h >> (64 - bits); ; slot = (slot + 1) & mask {
			gi := int(t[slot]) - 1
			if gi < 0 {
				t[slot] = int32(len(rows) + 1)
				group[i] = len(rows)
				rows = append(rows, x)
				break
			}
			if sameRowBits(rows[gi], x) {
				group[i] = gi
				break
			}
		}
	}
	g.rows = rows
}

// rowGroups is the grouping of one set of rows, made by the first Train
// that asks for it and then read, never written, by every other.
type rowGroups struct {
	once sync.Once
	X    [][]float64
	grouping
}

func sameRowBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// apply returns x standardized, clipped to the fitted width: features past
// it were never seen in training.
func (s *standardizer) apply(x []float64) []float64 {
	out := make([]float64, min(len(x), len(s.mean)))
	for j := range out {
		out[j] = (x[j] - s.mean[j]) * s.scale[j]
	}
	return out
}

// applyInto standardizes each row of X into the row of dst at its index,
// which is as wide as the fitted width.
func (s *standardizer) applyInto(dst, X [][]float64) {
	for i, row := range X {
		out := dst[i]
		for j := range out {
			out[j] = (row[j] - s.mean[j]) * s.scale[j]
		}
	}
}

// targetScaler standardizes the regression target; MLP training needs it
// for stable gradients.
type targetScaler struct {
	mean, sd float64
}

// refitTargetScaler fits t, or a new scaler when t is nil, to y.
func refitTargetScaler(t *targetScaler, y []float64) *targetScaler {
	if t == nil {
		t = new(targetScaler)
	}
	t.mean, t.sd = mean(y), math.Sqrt(variance(y))
	if t.sd < 1e-12 {
		t.sd = 1
	}
	return t
}

func (t *targetScaler) encode(v float64) float64 { return (v - t.mean) / t.sd }
func (t *targetScaler) decode(v float64) float64 { return v*t.sd + t.mean }
