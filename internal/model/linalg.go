package model

import (
	"errors"
	"math"
)

var errNotPD = errors.New("model: matrix not positive definite")

// lsq is flat scratch for one symmetric positive-definite solve of d
// unknowns: a is A, d×d row-major, of which only the lower triangle is read;
// l is its Cholesky factor, b the right-hand side and row a design row. The
// normal equations XᵀX, Xᵀy are accumulated by add, each cell's terms in row
// order; a caller may fill a and b directly instead.
type lsq struct {
	d            int
	a, l, b, row []float64
}

// reset sizes s for d unknowns and zeroes a and b.
func (s *lsq) reset(d int) {
	if s.d == d {
		clear(s.a)
		clear(s.b)
		return
	}
	buf := make([]float64, 2*d*d+2*d)
	s.d, s.a, s.l, s.b, s.row = d, buf[:d*d], buf[d*d:2*d*d], buf[2*d*d:2*d*d+d], buf[2*d*d+d:]
}

// add accumulates one design row and its target: A += row rowᵀ, b += row·y.
func (s *lsq) add(row []float64, y float64) {
	row = row[:s.d]
	for i, ri := range row {
		s.b[i] += ri * y
		ai := s.a[i*s.d:][:i+1]
		for j, rj := range row[:i+1] {
			ai[j] += ri * rj
		}
	}
}

// solve writes to x (d long) the solution of (A + ridge·I) x = b by Cholesky
// decomposition, adding an escalating jitter to the diagonal while the matrix
// is numerically not positive definite, and reports false when every jitter
// fails. It reads a and b and writes only l and x, so the same sums can be
// solved again under another ridge.
func (s *lsq) solve(ridge float64, x []float64) bool {
	jitter := 0.0
	for attempt := 0; attempt < 6; attempt++ {
		if s.factor(ridge, jitter) {
			s.substitute(x)
			return true
		}
		if jitter == 0 {
			jitter = 1e-10 * s.traceMean(ridge)
			if jitter == 0 {
				jitter = 1e-10
			}
		} else {
			jitter *= 100
		}
	}
	return false
}

func (s *lsq) traceMean(ridge float64) float64 {
	t := 0.0
	for i := 0; i < s.d; i++ {
		t += math.Abs(s.a[i*s.d+i] + ridge)
	}
	return t / float64(s.d)
}

// factor writes to l the lower-triangular factor of A + (ridge+jitter)·I, the
// ridge and then the jitter added to each diagonal sum, or reports false when
// the factorisation fails. Every cell of l it reads it has written first.
func (s *lsq) factor(ridge, jitter float64) bool {
	d := s.d
	for i := 0; i < d; i++ {
		ai, li := s.a[i*d:][:i+1], s.l[i*d:][:i+1]
		for j := range li {
			lj := s.l[j*d:][:j+1]
			sum := ai[j]
			if i == j {
				sum += ridge
				sum += jitter
			}
			for k, v := range lj[:j] {
				sum -= li[k] * v
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return false
				}
				li[i] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return true
}

// substitute solves L Lᵀ x = b into x: forward substitution, then back
// substitution in place.
func (s *lsq) substitute(x []float64) {
	d := s.d
	for i := 0; i < d; i++ {
		li := s.l[i*d:][:i+1]
		sum := s.b[i]
		for k, v := range x[:i] {
			sum -= li[k] * v
		}
		x[i] = sum / li[i]
	}
	for i := d - 1; i >= 0; i-- {
		sum := x[i]
		for k := i + 1; k < d; k++ {
			sum -= s.l[k*d+i] * x[k]
		}
		x[i] = sum / s.l[i*d+i]
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func mean(y []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range y {
		s += v
	}
	return s / float64(len(y))
}

func variance(y []float64) float64 {
	if len(y) < 2 {
		return 0
	}
	m := mean(y)
	s := 0.0
	for _, v := range y {
		d := v - m
		s += d * d
	}
	return s / float64(len(y))
}
