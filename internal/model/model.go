// Package model implements the estimation-model zoo IReS uses in place of
// WEKA (D3.3 §2.2.1): linear regression (including a least-median-of-squares
// flavour), k-nearest-neighbour interpolation, decision-tree regression,
// bagging, random subspaces, regression by discretization, RBF networks,
// multilayer perceptrons and Gaussian processes — plus the k-fold
// cross-validation harness that keeps whichever model best fits the
// available profiling data.
//
// All models are pure Go, deterministic given their seed, and sized for the
// small feature spaces (a handful of data/operator/resource parameters) and
// sample counts (tens to hundreds of profiled runs) the platform works with.
package model

import (
	"errors"
	"fmt"
)

// Model is a trainable regressor mapping a feature vector to a scalar
// estimate (execution time, cost, output size, ...).
type Model interface {
	// Name identifies the model family for reporting and selection.
	Name() string
	// Train fits the model on the given samples. Implementations must cope
	// with n < dims and duplicate rows.
	Train(X [][]float64, y []float64) error
	// Predict returns the estimate for one feature vector. Predict on an
	// untrained model returns 0.
	Predict(x []float64) float64
}

// ErrNoData is returned when Train is called without samples.
var ErrNoData = errors.New("model: no training data")

// ErrDimMismatch is returned when feature vectors disagree in length.
var ErrDimMismatch = errors.New("model: dimension mismatch")

func validate(X [][]float64, y []float64) (dims int, err error) {
	if len(X) == 0 || len(y) == 0 {
		return 0, ErrNoData
	}
	if len(X) != len(y) {
		return 0, fmt.Errorf("%w: %d rows vs %d targets", ErrDimMismatch, len(X), len(y))
	}
	dims = len(X[0])
	if dims == 0 {
		return 0, fmt.Errorf("%w: empty feature vector", ErrDimMismatch)
	}
	for i, row := range X {
		if len(row) != dims {
			return 0, fmt.Errorf("%w: row %d has %d features, want %d", ErrDimMismatch, i, len(row), dims)
		}
	}
	return dims, nil
}

// Factory constructs a fresh, untrained model. Cross-validation uses
// factories so every fold trains from scratch.
type Factory func() Model

// DefaultFactories returns the platform's full model zoo, seeded
// deterministically.
func DefaultFactories(seed int64) []Factory {
	return []Factory{
		func() Model { return NewLinear() },
		func() Model { return NewLeastMedianSquares(seed) },
		func() Model { return NewKNN(3) },
		func() Model { return NewTree(8, 2) },
		func() Model { return NewBagging(10, seed) },
		func() Model { return NewRandomSubspace(10, 0.5, seed) },
		func() Model { return NewDiscretized(8) },
		func() Model { return NewRBFNetwork(8, seed) },
		func() Model { return NewMLP(8, 300, 0.05, seed) },
		func() Model { return NewGaussianProcess(1.0, 0.1) },
	}
}

func clone1D(y []float64) []float64 {
	return append([]float64(nil), y...)
}
