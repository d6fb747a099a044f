package model

import "math"

// standardizer rescales features to zero mean and unit variance; constant
// features map to zero. Several models (kNN, RBF, MLP, GP) depend on it
// because the platform's raw features span wildly different magnitudes
// (record counts in the millions next to core counts below ten).
type standardizer struct {
	mean  []float64
	scale []float64
}

func fitStandardizer(X [][]float64) *standardizer {
	if len(X) == 0 {
		return &standardizer{}
	}
	d := len(X[0])
	s := &standardizer{mean: make([]float64, d), scale: make([]float64, d)}
	s.fit(X)
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

// distinctRows groups X's rows by their bits: rows are the distinct rows in
// first-appearance order (aliasing X's) and group[i] is row i's index among
// them, so group[i] <= i. -0 and +0 are different rows; a NaN equals a NaN
// of the same payload. An open-addressing table of group indices does the
// grouping: a few allocations per call, none per row.
func distinctRows(X [][]float64) (rows [][]float64, group []int) {
	rows = make([][]float64, 0, len(X))
	group = make([]int, len(X))
	bits := 1
	for 1<<bits < 2*len(X) {
		bits++
	}
	table := make([]int32, 1<<bits) // group index + 1; 0 is an empty slot
	mask := uint64(len(table) - 1)
	for i, x := range X {
		// Multiplicative hashing: the top bits of h depend on every bit of
		// every feature, which the low bits of integral floats would not.
		h := uint64(len(x))
		for _, v := range x {
			h = (h ^ math.Float64bits(v)) * 0x9e3779b97f4a7c15
		}
		for slot := h >> (64 - bits); ; slot = (slot + 1) & mask {
			g := int(table[slot]) - 1
			if g < 0 {
				table[slot] = int32(len(rows) + 1)
				group[i] = len(rows)
				rows = append(rows, x)
				break
			}
			if sameRowBits(rows[g], x) {
				group[i] = g
				break
			}
		}
	}
	return rows, group
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

func (s *standardizer) applyAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.apply(row)
	}
	return out
}

// targetScaler standardizes the regression target; MLP training needs it
// for stable gradients.
type targetScaler struct {
	mean, sd float64
}

func fitTargetScaler(y []float64) *targetScaler {
	m := mean(y)
	sd := math.Sqrt(variance(y))
	if sd < 1e-12 {
		sd = 1
	}
	return &targetScaler{mean: m, sd: sd}
}

func (t *targetScaler) encode(v float64) float64 { return (v - t.mean) / t.sd }
func (t *targetScaler) decode(v float64) float64 { return v*t.sd + t.mean }
