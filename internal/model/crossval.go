package model

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"
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
	Best   int     // index of the winning family in the factories
	Scores []Score // one per candidate family, in factory order
	// Trained and Skipped split the candidates x k cells of the full grid
	// into those that were trained and those that could not change Best. They
	// depend on the data and the lead only, never on the worker count or on
	// timing.
	Trained, Skipped int
}

// ByRelErr is the selection key of SelectBestRelative and of the profiler.
func ByRelErr(s Score) float64 { return s.RelErr }

// CrossValidate performs k-fold cross-validation of every factory on the
// samples and returns the per-family scores, sorted by the input factory
// order. Folds are shuffled deterministically by seed.
//
// It is the full grid: every family trains every fold. The cells run on up
// to GOMAXPROCS goroutines and their errors are summed in (family, fold,
// sample) order, so every Score is bit-identical whatever the worker count:
// per-cell partial sums would re-associate the float additions and could flip
// a near-tie in the selection. A fold whose Train fails counts as +Inf in both
// sums: a family that cannot train never scores better than one that can.
func CrossValidate(factories []Factory, X [][]float64, y []float64, k int, seed int64) ([]Score, error) {
	f, err := newFit(factories, X, []Target{{Y: y, Select: true}}, len(X), k, seed, nil)
	if err != nil {
		return nil, err
	}
	f.run()
	return f.cols[0].sel.Scores, nil
}

// Select picks, for every target column ys[t] over the shared samples X, the
// family Best(CrossValidate(...), key) would pick, without training the
// cells that cannot change that answer; key maps a Score to the error it
// minimizes, such as ByRelErr.
//
// A target's cells run in k waves. Wave 0 trains every fold of its lead
// family (leads[t], an incumbent if there is one; family 0 when out of range)
// and fold 0 of every other family; the lead's score is the bound. After wave
// j a surviving family's error over folds 0..j, summed in the same (fold,
// sample) order the full grid uses, is a prefix of its full sum. The terms are
// non-negative and float addition, division by n and sqrt are monotone, so a
// prefix strictly above the bound means the full score is above it too (or
// NaN, which Best never picks): the family is dropped and wave j+1 trains fold
// j+1 of the survivors only. Strict > keeps an exact tie alive, so it still
// resolves to the earliest family; family 0 is never dropped, because Best
// returns it when its own key is NaN. The lead changes how much is skipped,
// never the winner.
//
// Each target walks its own waves: the cell that completes a wave reduces it
// and queues the next one of that target only, on the one pool all targets
// share. Which cells are trained depends on the data and the lead alone, so
// Trained repeats exactly.
func Select(factories []Factory, X [][]float64, ys [][]float64, leads []int, k int, seed int64, key func(Score) float64) ([]Selection, error) {
	targets := make([]Target, len(ys))
	for t, y := range ys {
		targets[t] = Target{Y: y, Select: true}
		if t < len(leads) {
			targets[t].Family = leads[t]
		}
	}
	f, err := newFit(factories, X, targets, len(X), k, seed, key)
	if err != nil {
		return nil, err
	}
	f.run()
	sels := make([]Selection, len(targets))
	for t := range sels {
		sels[t] = f.cols[t].sel
	}
	return sels, nil
}

// Target is one column of a Fit.
type Target struct {
	Y []float64 // one value per row of the fit's X
	// Family is the family trained on the whole X; with Select it only leads
	// a bounded selection on the fit's first rows, whose winner is trained.
	Family int
	Select bool
	// Families are the candidates a selection picks among, ascending indices
	// into the factories; empty is all of them. Restricting them changes no
	// score, so when the whole zoo's winner is a candidate it wins here too.
	Families []int
}

// Fitted is what a Fit made of one Target.
type Fitted struct {
	Model     Model // trained on the whole X
	Family    int
	Selection Selection // the zero Selection unless the target selected
	Err       error     // the whole-buffer Train's
}

// Fit trains one model per target on all of X, the targets that select
// choosing their family first by Select over X[:sel] and Y[:sel], among their
// Families (k folds, seed, key; sel <= len(X)). It is one job graph on one
// pool: a target that does not select queues its whole-buffer Train at once,
// one that does queues it the moment its last wave has settled the winner,
// while other targets' waves are still running. It returns the summed time of the jobs. An error
// before any Train (a Y that is not one value per row, Select's validation)
// fails the fit; an error of a whole-buffer Train is its Fitted's.
func Fit(factories []Factory, X [][]float64, targets []Target, sel, k int, seed int64, key func(Score) float64) ([]Fitted, time.Duration, error) {
	f, err := newFit(factories, X, targets, sel, k, seed, key)
	if err != nil {
		return nil, 0, err
	}
	f.whole = X
	busy := f.run()
	out := make([]Fitted, len(f.cols))
	for t := range f.cols {
		c := &f.cols[t]
		out[t] = Fitted{Model: c.model, Family: c.fam, Selection: c.sel, Err: c.err}
	}
	return out, busy, nil
}

// split is one fold: the rows trained on and the rows held out, with their
// positions in X so that every target column is cut the same way.
type split struct {
	trX, vaX [][]float64
	tr, va   []int
}

// column is one target's state through its waves.
type column struct {
	y   []float64
	fam int // the family trained on the whole buffer: the winner, once settled
	// Selection state, written only by whoever holds the column's current
	// wave: the caller for wave 0, then the cell that completes each wave.
	// Cells and sums are indexed by candidate, fams[cand] being the family.
	selects  bool
	fams     []int
	trY, vaY [][]float64 // per fold
	// preds[cand*k+fold] holds a trained cell's validation predictions, nil
	// when its Train failed.
	preds   [][]float64
	lead    int       // a candidate
	se, re  []float64 // per candidate, summed over its reduced folds in order
	dropped []bool
	trained int
	wave    int
	left    atomic.Int32 // cells of the current wave still running, plus one while it is being queued
	sel     Selection

	model Model
	err   error
}

// job is one cross-validation cell of a column, or with fold < 0 its
// whole-buffer Train of the column's fam.
type job struct{ col, cand, fold int }

// fit is the job graph of one Fit, Select or CrossValidate (key nil: the full
// grid, every cell in wave 0).
type fit struct {
	factories []Factory
	names     []string
	whole     [][]float64 // the rows of whole-buffer Trains; nil when the fit only selects
	folds     []split
	n, k      int // rows cross-validated, folds
	key       func(Score) float64
	cols      []column
	pool      pool[job]
}

// newFit checks that every target has one value per row of X, validates the
// selecting targets on the first n rows and cuts those into folds.
func newFit(factories []Factory, X [][]float64, targets []Target, n, k int, seed int64, key func(Score) float64) (*fit, error) {
	nf := len(factories)
	f := &fit{factories: factories, n: n, key: key, cols: make([]column, len(targets))}
	f.pool.do = f.do
	selecting := false
	for t, tg := range targets {
		if len(tg.Y) != len(X) {
			return nil, fmt.Errorf("%w: %d rows vs %d targets", ErrDimMismatch, len(X), len(tg.Y))
		}
		c := &f.cols[t]
		c.y, c.fam, c.selects = tg.Y, tg.Family, tg.Select
		if !tg.Select {
			continue
		}
		if _, err := validate(X[:n], tg.Y[:n]); err != nil {
			return nil, err
		}
		selecting = true
	}
	if !selecting {
		return f, nil
	}
	if n < 2 {
		return nil, fmt.Errorf("model: cross-validation produced no folds")
	}
	f.k = min(max(k, 2), n)
	k = f.k
	perm := newRand(seed).Perm(n)

	// With 2 <= k <= n both sides of every fold are non-empty.
	f.folds = make([]split, k)
	for i, p := range perm {
		for fo := range f.folds {
			s := &f.folds[fo]
			if i%k == fo {
				s.vaX, s.va = append(s.vaX, X[p]), append(s.va, p)
			} else {
				s.trX, s.tr = append(s.trX, X[p]), append(s.tr, p)
			}
		}
	}
	f.names = make([]string, nf)
	all := make([]int, nf)
	for fam, fac := range factories {
		f.names[fam], all[fam] = fac().Name(), fam
	}
	for t, tg := range targets {
		c := &f.cols[t]
		if !c.selects {
			continue
		}
		c.trY, c.vaY = make([][]float64, k), make([][]float64, k)
		for fo, s := range f.folds {
			c.trY[fo], c.vaY[fo] = gather(c.y, s.tr), gather(c.y, s.va)
		}
		if c.fams = tg.Families; len(c.fams) == 0 {
			c.fams = all
		}
		nc := len(c.fams)
		c.preds = make([][]float64, nc*k)
		c.se, c.re, c.dropped = make([]float64, nc), make([]float64, nc), make([]bool, nc)
		c.lead = max(slices.Index(c.fams, c.fam), 0)
	}
	return f, nil
}

// run queues every selecting target's wave 0 and, in a Fit, the whole-buffer
// Train of every other target, then works the graph to the end. It returns
// the summed job time.
func (f *fit) run() time.Duration {
	for t := range f.cols {
		switch {
		case f.cols[t].selects:
			f.queueWave(t)
		case f.whole != nil:
			f.pool.push(job{t, 0, -1})
		}
	}
	return f.pool.run()
}

// span is the folds of one candidate that the column's current wave trains:
// all of them in wave 0 for the lead (and for everyone on the full grid), else
// the wave's own.
func (f *fit) span(c *column, cand int) (lo, hi int) {
	switch {
	case c.dropped[cand]:
		return 0, 0
	case f.key != nil && cand != c.lead:
		return c.wave, c.wave + 1
	case c.wave == 0:
		return 0, f.k
	}
	return 0, 0
}

// queueWave queues the cells of the column's current wave. The column holds
// one extra count while they are queued, so the wave cannot complete under
// the loop; if they have all finished by then (or there were none), the wave
// is completed here.
func (f *fit) queueWave(t int) {
	c := &f.cols[t]
	for {
		c.left.Store(1)
		for cand := range c.fams {
			for fold, hi := f.span(c, cand); fold < hi; fold++ {
				c.left.Add(1)
				f.pool.push(job{t, cand, fold})
			}
		}
		if c.left.Add(-1) > 0 || !f.endWave(t) {
			return
		}
	}
}

func (f *fit) do(j job) {
	c := &f.cols[j.col]
	if j.fold < 0 {
		c.model = f.factories[c.fam]()
		c.err = c.model.Train(f.whole, c.y)
		return
	}
	s := &f.folds[j.fold]
	if m := f.factories[c.fams[j.cand]](); m.Train(s.trX, c.trY[j.fold]) == nil {
		out := make([]float64, len(s.vaX))
		for i, x := range s.vaX {
			out[i] = m.Predict(x)
		}
		c.preds[j.cand*f.k+j.fold] = out
	}
	if c.left.Add(-1) == 0 && f.endWave(j.col) {
		f.queueWave(j.col)
	}
}

// endWave reduces the column's completed wave in (family, fold, sample)
// order, drops what the lead's score already rules out and moves to the next
// wave, reporting whether there is one. After the last it settles the
// selection and, in a Fit, queues the winner's whole-buffer Train.
func (f *fit) endWave(t int) bool {
	c := &f.cols[t]
	nc := len(c.fams)
	for cand := range nc {
		lo, hi := f.span(c, cand)
		c.reduce(cand, lo, hi, f.k)
		c.trained += hi - lo
	}
	if c.wave++; c.wave < f.k {
		if f.key != nil {
			bound := f.key(f.score(c, c.lead))
			for cand := 1; cand < nc; cand++ {
				c.dropped[cand] = c.dropped[cand] || f.key(f.score(c, cand)) > bound
			}
		}
		return true
	}
	scores := make([]Score, nc)
	for cand := range scores {
		scores[cand] = f.score(c, cand)
		scores[cand].Name = f.names[c.fams[cand]]
	}
	c.sel = Selection{Scores: scores, Trained: c.trained, Skipped: nc*f.k - c.trained}
	if f.key != nil {
		c.sel.Best = c.fams[Best(scores, f.key)]
		c.fam = c.sel.Best
	}
	if f.whole != nil {
		f.pool.push(job{t, 0, -1})
	}
	return false
}

func (f *fit) score(c *column, cand int) Score {
	return Score{RMSE: math.Sqrt(c.se[cand] / float64(f.n)), RelErr: c.re[cand] / float64(f.n), Bound: c.dropped[cand]}
}

// reduce adds the errors of the trained folds [lo, hi) of one candidate to its
// sums.
func (c *column) reduce(cand, lo, hi, k int) {
	se, re := c.se[cand], c.re[cand]
	for fold := lo; fold < hi; fold++ {
		if c.preds[cand*k+fold] == nil {
			// A family that cannot train on this fold is penalised, not
			// fatal: other families may still fit.
			se += math.Inf(1)
			re += math.Inf(1)
			continue
		}
		vaY := c.vaY[fold]
		for i, pred := range c.preds[cand*k+fold] {
			d := pred - vaY[i]
			se += d * d
			if vaY[i] != 0 {
				re += math.Abs(d) / math.Abs(vaY[i])
			}
		}
	}
	c.se[cand], c.re[cand] = se, re
}

func gather(y []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, p := range idx {
		out[i] = y[p]
	}
	return out
}

// SelectBestRelative returns the family whose cross-validated mean relative
// error is lowest, trained on the full dataset, together with all scores.
// Ties and NaNs resolve to the earliest factory. The selection is bounded
// (Select): the Score of a family dropped on the way is marked as a lower
// bound. For targets spanning orders of magnitude (execution times from
// seconds to hours), relative error weights every scale equally — the
// criterion the paper's estimation-accuracy evaluation uses.
func SelectBestRelative(factories []Factory, X [][]float64, y []float64, k int, seed int64) (Model, []Score, error) {
	sels, err := Select(factories, X, [][]float64{y}, nil, k, seed, ByRelErr)
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
