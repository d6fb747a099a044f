package model

import (
	"fmt"
	"math"
)

// solveSPD solves A x = b for symmetric positive-definite A via Cholesky
// decomposition, adding a small jitter to the diagonal when the matrix is
// near-singular. A is modified in place.
func solveSPD(A [][]float64, b []float64) ([]float64, error) {
	n := len(A)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("model: solveSPD dimension mismatch")
	}
	// Attempt Cholesky with escalating jitter.
	jitter := 0.0
	for attempt := 0; attempt < 6; attempt++ {
		L, ok := cholesky(A, jitter)
		if ok {
			return choleskySolve(L, b), nil
		}
		if jitter == 0 {
			jitter = 1e-10 * traceMean(A)
			if jitter == 0 {
				jitter = 1e-10
			}
		} else {
			jitter *= 100
		}
	}
	return nil, fmt.Errorf("model: matrix not positive definite")
}

func traceMean(A [][]float64) float64 {
	s := 0.0
	for i := range A {
		s += math.Abs(A[i][i])
	}
	return s / float64(len(A))
}

// cholesky returns the lower-triangular factor of A + jitter*I, or ok=false
// when the factorisation fails.
func cholesky(A [][]float64, jitter float64) ([][]float64, bool) {
	n := len(A)
	L := square(n)
	for i := 0; i < n; i++ {
		Ai, Li := A[i], L[i]
		for j := 0; j <= i; j++ {
			Lj := L[j]
			sum := Ai[j]
			if i == j {
				sum += jitter
			}
			for k, v := range Lj[:j] {
				sum -= Li[k] * v
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, false
				}
				Li[i] = math.Sqrt(sum)
			} else {
				Li[j] = sum / Lj[j]
			}
		}
	}
	return L, true
}

// square returns an n x n zero matrix whose rows share one backing array.
func square(n int) [][]float64 {
	buf := make([]float64, n*n)
	M := make([][]float64, n)
	for i := range M {
		M[i] = buf[i*n : (i+1)*n : (i+1)*n]
	}
	return M
}

// choleskySolve solves L L^T x = b.
func choleskySolve(L [][]float64, b []float64) []float64 {
	n := len(L)
	// Forward substitution: L z = b.
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		Li := L[i]
		sum := b[i]
		for k, v := range z[:i] {
			sum -= Li[k] * v
		}
		z[i] = sum / Li[i]
	}
	// Back substitution: L^T x = z.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := z[i]
		for k := i + 1; k < n; k++ {
			sum -= L[k][i] * x[k]
		}
		x[i] = sum / L[i][i]
	}
	return x
}

// normalEquations computes (X^T X + ridge*I) w = X^T y for the design
// matrix X (rows are samples) and returns w.
func normalEquations(X [][]float64, y []float64, ridge float64) ([]float64, error) {
	if len(X) == 0 {
		return nil, ErrNoData
	}
	d := len(X[0])
	A := square(d)
	b := make([]float64, d)
	for r, row := range X {
		row = row[:d]
		yr := y[r]
		for i, ri := range row {
			b[i] += ri * yr
			Ai := A[i]
			for j, rj := range row[:i+1] {
				Ai[j] += ri * rj
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := 0; j < i; j++ {
			A[j][i] = A[i][j]
		}
		A[i][i] += ridge
	}
	return solveSPD(A, b)
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
