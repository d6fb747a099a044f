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
	// Bound is set on a family a bounded selection (Select) dropped before
	// its last fold: RMSE and RelErr then cover the folds it did train and
	// are lower bounds of what the full grid would have scored.
	Bound bool
}

// Selection is the outcome of one target's bounded selection.
type Selection struct {
	Best   int     // index of the winning family
	Scores []Score // one per family, in factory order
	// Trained and Skipped split the len(factories)*k cells of the full grid
	// into those that were trained and those that could not change Best. They
	// depend on the data and the lead only, never on the worker count or on
	// timing.
	Trained, Skipped int
}

// ByRMSE is the selection key of SelectBest.
func ByRMSE(s Score) float64 { return s.RMSE }

// ByRelErr is the selection key of SelectBestRelative and of the profiler.
func ByRelErr(s Score) float64 { return s.RelErr }

// Parallel calls fn(i) for every i in [0, n) on min(GOMAXPROCS, n)
// goroutines, the caller's among them, and returns when every call has.
func Parallel(n int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// CrossValidate performs k-fold cross-validation of every factory on the
// samples and returns the per-family scores, sorted by the input factory
// order. Folds are shuffled deterministically by seed.
//
// It is the full grid: every family trains every fold. The cells run on up
// to GOMAXPROCS goroutines and their errors are summed sequentially in
// (family, fold, sample) order, so every Score is bit-identical whatever the
// worker count: per-cell partial sums would re-associate the float additions
// and could flip a near-tie in the selection. A fold whose Train fails counts
// as +Inf in both sums: a family that cannot train never scores better than
// one that can.
func CrossValidate(factories []Factory, X [][]float64, y []float64, k int, seed int64) ([]Score, error) {
	sels, err := crossValidate(factories, X, [][]float64{y}, nil, k, seed, nil)
	if err != nil {
		return nil, err
	}
	return sels[0].Scores, nil
}

// Select picks, for every target column ys[t] over the shared samples X, the
// family Best(CrossValidate(...), key) would pick, without training the
// cells that cannot change that answer; key is ByRMSE or ByRelErr.
//
// The cells run in k waves. Wave 0 trains every fold of the target's lead
// family (leads[t], an incumbent if there is one; family 0 when out of
// range) and fold 0 of every other family; the lead's score is the bound.
// After wave j a surviving family's error over folds 0..j, summed in the
// same (fold, sample) order the full grid uses, is a prefix of its full sum.
// The terms are non-negative and float addition, division by n and sqrt are
// monotone, so a prefix strictly above the bound means the full score is
// above it too (or NaN, which Best never picks): the family is dropped and
// wave j+1 trains fold j+1 of the survivors only. Strict > keeps an exact tie
// alive, so it still resolves to the earliest family; family 0 is never
// dropped, because Best returns it when its own key is NaN. The lead changes
// how much is skipped, never the winner.
//
// All targets' cells of a wave share one pool (Parallel), and which cells
// are trained depends on the data alone, so Trained repeats exactly.
func Select(factories []Factory, X [][]float64, ys [][]float64, leads []int, k int, seed int64, key func(Score) float64) ([]Selection, error) {
	return crossValidate(factories, X, ys, leads, k, seed, key)
}

// split is one fold: the rows trained on and the rows held out, with their
// positions in X so that every target column is cut the same way.
type split struct {
	trX, vaX [][]float64
	tr, va   []int
}

// column is one target's state through the waves.
type column struct {
	trY, vaY [][]float64 // per fold
	// preds[family*k+fold] holds a trained cell's validation predictions,
	// nil when its Train failed.
	preds   [][]float64
	lead    int
	se, re  []float64 // per family, summed over its reduced folds in order
	dropped []bool
	trained int
}

// cell is one train-and-predict job.
type cell struct{ col, fam, fold int }

// crossValidate is the one cell loop: the bounded selection when key is set,
// the full grid (every family trains every fold in wave 0) when it is nil.
func crossValidate(factories []Factory, X [][]float64, ys [][]float64, leads []int, k int, seed int64, key func(Score) float64) ([]Selection, error) {
	for _, y := range ys {
		if _, err := validate(X, y); err != nil {
			return nil, err
		}
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
	n, nf := len(X), len(factories)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)

	// With 2 <= k <= len(X) both sides of every fold are non-empty.
	folds := make([]split, k)
	for i, p := range perm {
		for f := range folds {
			s := &folds[f]
			if i%k == f {
				s.vaX, s.va = append(s.vaX, X[p]), append(s.va, p)
			} else {
				s.trX, s.tr = append(s.trX, X[p]), append(s.tr, p)
			}
		}
	}
	cols := make([]column, len(ys))
	for t, y := range ys {
		c := &cols[t]
		c.trY, c.vaY = make([][]float64, k), make([][]float64, k)
		for f, s := range folds {
			c.trY[f], c.vaY[f] = gather(y, s.tr), gather(y, s.va)
		}
		c.preds = make([][]float64, nf*k)
		c.se, c.re, c.dropped = make([]float64, nf), make([]float64, nf), make([]bool, nf)
		if t < len(leads) && leads[t] > 0 && leads[t] < nf {
			c.lead = leads[t]
		}
	}
	// span is the folds of one family that a wave trains: all of them in
	// wave 0 for a lead (and for everyone on the full grid), else the wave's.
	span := func(c *column, fam, wave int) (lo, hi int) {
		switch {
		case c.dropped[fam]:
			return 0, 0
		case key != nil && fam != c.lead:
			return wave, wave + 1
		case wave == 0:
			return 0, k
		}
		return 0, 0
	}
	score := func(c *column, fam int) Score {
		return Score{RMSE: math.Sqrt(c.se[fam] / float64(n)), RelErr: c.re[fam] / float64(n), Bound: c.dropped[fam]}
	}

	var cells []cell
	for wave := 0; wave < k; wave++ {
		cells = cells[:0]
		for t := range cols {
			for fam := 0; fam < nf; fam++ {
				for fold, hi := span(&cols[t], fam, wave); fold < hi; fold++ {
					cells = append(cells, cell{t, fam, fold})
				}
			}
		}
		Parallel(len(cells), func(i int) {
			ce := cells[i]
			c, s := &cols[ce.col], &folds[ce.fold]
			m := factories[ce.fam]()
			if m.Train(s.trX, c.trY[ce.fold]) != nil {
				return
			}
			out := make([]float64, len(s.vaX))
			for i, x := range s.vaX {
				out[i] = m.Predict(x)
			}
			c.preds[ce.fam*k+ce.fold] = out
		})
		// Reduce sequentially, in (family, fold, sample) order per target,
		// then drop what the lead's score already rules out.
		for t := range cols {
			c := &cols[t]
			for fam := 0; fam < nf; fam++ {
				lo, hi := span(c, fam, wave)
				c.reduce(fam, lo, hi, k)
				c.trained += hi - lo
			}
			if key == nil || wave == k-1 {
				continue
			}
			bound := key(score(c, c.lead))
			for fam := 1; fam < nf; fam++ {
				c.dropped[fam] = c.dropped[fam] || key(score(c, fam)) > bound
			}
		}
	}

	names := make([]string, nf)
	for fam, fac := range factories {
		names[fam] = fac().Name()
	}
	sels := make([]Selection, len(cols))
	for t := range cols {
		scores := make([]Score, nf)
		for fam := range scores {
			scores[fam] = score(&cols[t], fam)
			scores[fam].Name = names[fam]
		}
		sels[t] = Selection{Scores: scores, Trained: cols[t].trained, Skipped: nf*k - cols[t].trained}
		if key != nil {
			sels[t].Best = Best(scores, key)
		}
	}
	return sels, nil
}

// reduce adds the errors of the trained folds [lo, hi) of one family to its
// sums.
func (c *column) reduce(fam, lo, hi, k int) {
	se, re := c.se[fam], c.re[fam]
	for fold := lo; fold < hi; fold++ {
		if c.preds[fam*k+fold] == nil {
			// A family that cannot train on this fold is penalised, not
			// fatal: other families may still fit.
			se += math.Inf(1)
			re += math.Inf(1)
			continue
		}
		vaY := c.vaY[fold]
		for i, pred := range c.preds[fam*k+fold] {
			d := pred - vaY[i]
			se += d * d
			if vaY[i] != 0 {
				re += math.Abs(d) / math.Abs(vaY[i])
			}
		}
	}
	c.se[fam], c.re[fam] = se, re
}

func gather(y []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, p := range idx {
		out[i] = y[p]
	}
	return out
}

// SelectBest returns the family cross-validation scores best (by RMSE)
// trained on the full dataset, together with all scores. Ties and NaNs
// resolve to the earliest factory. The selection is bounded (Select): the
// Score of a family dropped on the way is marked as a lower bound.
func SelectBest(factories []Factory, X [][]float64, y []float64, k int, seed int64) (Model, []Score, error) {
	return selectBest(factories, X, y, k, seed, ByRMSE)
}

// SelectBestRelative selects by mean relative error instead of RMSE. For
// targets spanning orders of magnitude (execution times from seconds to
// hours), relative error weights every scale equally — the criterion the
// paper's estimation-accuracy evaluation uses.
func SelectBestRelative(factories []Factory, X [][]float64, y []float64, k int, seed int64) (Model, []Score, error) {
	return selectBest(factories, X, y, k, seed, ByRelErr)
}

func selectBest(factories []Factory, X [][]float64, y []float64, k int, seed int64, key func(Score) float64) (Model, []Score, error) {
	sels, err := Select(factories, X, [][]float64{y}, nil, k, seed, key)
	if err != nil {
		return nil, nil, err
	}
	m := factories[sels[0].Best]()
	if err := m.Train(X, y); err != nil {
		return nil, sels[0].Scores, err
	}
	return m, sels[0].Scores, nil
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
