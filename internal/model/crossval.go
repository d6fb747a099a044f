package model

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// Score summarises one model family's cross-validated fit.
type Score struct {
	Name string
	RMSE float64
	// RelErr is the mean absolute relative error |pred-actual|/actual over
	// validation folds (the paper's Fig 16 metric).
	RelErr float64
}

// CrossValidate performs k-fold cross-validation of every factory on the
// samples and returns the per-family scores, sorted by the input factory
// order. Folds are shuffled deterministically by seed.
//
// The len(factories)×k train-and-predict cells are independent and run on up
// to GOMAXPROCS goroutines. Their errors are then summed sequentially in
// (family, fold, sample) order, so every Score is bit-identical whatever the
// worker count: per-cell partial sums would re-associate the float additions
// and could flip a near-tie in the selection.
func CrossValidate(factories []Factory, X [][]float64, y []float64, k int, seed int64) ([]Score, error) {
	if _, err := validate(X, y); err != nil {
		return nil, err
	}
	if len(X) < 2 {
		return nil, fmt.Errorf("model: cross-validation produced no folds")
	}
	if k < 2 {
		k = 2
	}
	if k > len(X) {
		k = len(X)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(X))

	// With 2 <= k <= len(X) both sides of every fold are non-empty.
	type split struct {
		trX, vaX [][]float64
		trY, vaY []float64
	}
	folds := make([]split, k)
	for i, p := range perm {
		for f := range folds {
			s := &folds[f]
			if i%k == f {
				s.vaX, s.vaY = append(s.vaX, X[p]), append(s.vaY, y[p])
			} else {
				s.trX, s.trY = append(s.trX, X[p]), append(s.trY, y[p])
			}
		}
	}

	// preds[family*k+fold] holds the cell's validation predictions, nil when
	// its Train failed.
	preds := make([][]float64, len(factories)*k)
	workers := min(runtime.GOMAXPROCS(0), len(preds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := int(next.Add(1)) - 1; ci < len(preds); ci = int(next.Add(1)) - 1 {
				m, s := factories[ci/k](), &folds[ci%k]
				if m.Train(s.trX, s.trY) != nil {
					continue
				}
				out := make([]float64, len(s.vaX))
				for i, x := range s.vaX {
					out[i] = m.Predict(x)
				}
				preds[ci] = out
			}
		}()
	}
	wg.Wait()

	scores := make([]Score, len(factories))
	for fi, fac := range factories {
		var se, re float64
		for fold, s := range folds {
			if preds[fi*k+fold] == nil {
				// A family that cannot train on this fold is penalised, not
				// fatal: other families may still fit.
				se += math.Inf(1)
				continue
			}
			for i, pred := range preds[fi*k+fold] {
				d := pred - s.vaY[i]
				se += d * d
				if s.vaY[i] != 0 {
					re += math.Abs(d) / math.Abs(s.vaY[i])
				}
			}
		}
		scores[fi] = Score{
			Name:   fac().Name(),
			RMSE:   math.Sqrt(se / float64(len(X))),
			RelErr: re / float64(len(X)),
		}
	}
	return scores, nil
}

// SelectBest cross-validates every factory and returns the winning family
// (by RMSE) trained on the full dataset, together with all scores. Ties
// and NaNs resolve to the earliest factory.
func SelectBest(factories []Factory, X [][]float64, y []float64, k int, seed int64) (Model, []Score, error) {
	return selectBest(factories, X, y, k, seed, func(s Score) float64 { return s.RMSE })
}

// SelectBestRelative selects by mean relative error instead of RMSE. For
// targets spanning orders of magnitude (execution times from seconds to
// hours), relative error weights every scale equally — the criterion the
// paper's estimation-accuracy evaluation uses.
func SelectBestRelative(factories []Factory, X [][]float64, y []float64, k int, seed int64) (Model, []Score, error) {
	return selectBest(factories, X, y, k, seed, func(s Score) float64 { return s.RelErr })
}

func selectBest(factories []Factory, X [][]float64, y []float64, k int, seed int64, key func(Score) float64) (Model, []Score, error) {
	scores, err := CrossValidate(factories, X, y, k, seed)
	if err != nil {
		return nil, nil, err
	}
	m := factories[Best(scores, key)]()
	if err := m.Train(X, y); err != nil {
		return nil, scores, err
	}
	return m, scores, nil
}

// Best returns the index of the score with the smallest key — the rule every
// selection shares. Ties and NaNs resolve to the earliest family.
func Best(scores []Score, key func(Score) float64) int {
	best := 0
	for i, s := range scores {
		if !math.IsNaN(key(s)) && key(s) < key(scores[best]) {
			best = i
		}
	}
	return best
}
