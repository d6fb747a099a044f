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
	f := newFit([]Problem{{Factories: factories, X: X, Targets: []Target{{Y: y, Select: true}}, Sel: len(X), K: k, Seed: seed}}, nil, false)
	if err := f.probs[0].err; err != nil {
		return nil, err
	}
	f.run()
	return f.probs[0].cols[0].sel.Scores, nil
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
	f := newFit([]Problem{{Factories: factories, X: X, Targets: targets, Sel: len(X), K: k, Seed: seed}}, key, false)
	pr := &f.probs[0]
	if pr.err != nil {
		return nil, pr.err
	}
	f.run()
	sels := make([]Selection, len(targets))
	for t := range sels {
		sels[t] = pr.cols[t].sel
	}
	return sels, nil
}

// Target is one column of a Problem.
type Target struct {
	Y []float64 // one value per row of the problem's X
	// Family is the family trained on the whole X; with Select it only leads
	// a bounded selection on the problem's first rows, whose winner is trained.
	Family int
	Select bool
	// Families are the candidates a selection picks among, ascending indices
	// into the factories; empty is all of them. Restricting them changes no
	// score, so when the whole zoo's winner is a candidate it wins here too.
	Families []int
}

// Problem is one independent system of a Fit: targets over its own rows X,
// the selecting ones choosing their family by Select over X[:Sel] and
// Y[:Sel] (K folds shuffled by Seed; Sel <= len(X)) among the Factories.
type Problem struct {
	Factories []Factory
	X         [][]float64
	Targets   []Target
	Sel, K    int
	Seed      int64
}

// Fitted is what a Fit made of one Target.
type Fitted struct {
	Model     Model // trained on the whole X
	Family    int
	Selection Selection // the zero Selection unless the target selected
	Err       error     // the whole-buffer Train's
}

// Fit trains one model per target of every problem on all of its X, the
// targets that select choosing their family first. It is one job graph on one
// pool, whatever the number of problems: a target that does not select queues
// its whole-buffer Train at once, one that does queues it the moment its last
// wave has settled the winner, while other targets' waves — of its own
// problem or of another — are still running. No problem reads another's
// state, so each one's outcome is what a Fit of it alone returns.
//
// It returns, per problem, one Fitted per target, or the error that failed
// the problem before any Train (a Y that is not one value per row, Select's
// validation), and the summed time of the jobs. An error of a whole-buffer
// Train is its Fitted's.
func Fit(problems []Problem, key func(Score) float64) ([][]Fitted, []error, time.Duration) {
	f := newFit(problems, key, true)
	busy := f.run()
	out, errs := make([][]Fitted, len(f.probs)), make([]error, len(f.probs))
	cols := 0
	for i := range f.probs {
		cols += len(f.probs[i].cols)
	}
	all := make([]Fitted, cols)
	for i := range f.probs {
		pr := &f.probs[i]
		if errs[i] = pr.err; pr.err != nil {
			continue
		}
		out[i], all = all[:len(pr.cols):len(pr.cols)], all[len(pr.cols):]
		for t := range pr.cols {
			c := &pr.cols[t]
			out[i][t] = Fitted{Model: c.model, Family: c.fam, Selection: c.sel, Err: c.err}
		}
	}
	return out, errs, busy
}

// split is one fold: the rows trained on and the rows held out, with their
// positions in X so that every target column is cut the same way.
type split struct {
	trX, vaX [][]float64
	tr, va   []int
	off      int       // where the held-out rows start among all folds'
	rows     rowGroups // trX grouped, for the cells of every target
}

// column is one target's state.
type column struct {
	y      []float64
	fam    int // the family trained on the whole buffer: the winner, once settled
	*waves     // nil unless the target selects
	sel    Selection
	model  Model
	err    error
}

// waves is a selecting target's state through its waves, written only by
// whoever holds the current wave: the caller for wave 0, then the cell that
// completes each wave. Cells and sums are indexed by candidate, fams[cand]
// being the family.
type waves struct {
	fams     []int
	trY, vaY [][]float64 // per fold
	// preds[cand*k+fold] holds a trained cell's validation predictions, nil
	// when its Train failed; a candidate's folds share n floats of flat.
	preds   [][]float64
	flat    []float64
	lead    int       // a candidate
	se, re  []float64 // per candidate, summed over its reduced folds in order
	dropped []bool
	trained int
	wave    int
	left    atomic.Int32 // cells of the current wave still running, plus one while it is being queued
}

// problem is one Problem's state in a fit.
type problem struct {
	factories []Factory
	protos    []Model // one untrained model per factory: its family's name and configuration
	names     []string
	whole     [][]float64 // the rows of whole-buffer Trains; nil when the fit only selects
	wholeRows rowGroups   // whole grouped, for the whole-buffer Trains of every target
	folds     []split
	n, k      int // rows cross-validated, folds
	seed      int64
	cols      []column
	err       error // the validation's: the problem queues no job
}

// job is one cross-validation cell of a problem's column, or with fold < 0
// its whole-buffer Train of the column's fam.
type job struct{ prob, col, cand, fold int }

// fit is the job graph of one Fit, Select or CrossValidate (key nil: the full
// grid, every cell in wave 0).
type fit struct {
	key   func(Score) float64
	probs []problem
	pool  pool[job]
}

// newFit sets up every problem: whole says whether the fit trains its targets
// on the whole X or only selects.
func newFit(problems []Problem, key func(Score) float64, whole bool) *fit {
	f := &fit{key: key, probs: make([]problem, len(problems))}
	f.pool.do = f.do
	for i, pb := range problems {
		pr := &f.probs[i]
		if whole {
			pr.whole, pr.wholeRows.X = pb.X, pb.X
		}
		// Problems over one zoo share its names.
		if i > 0 && sameFactories(pb.Factories, problems[i-1].Factories) {
			pr.protos, pr.names = f.probs[i-1].protos, f.probs[i-1].names
		}
		pr.err = pr.setup(pb, f.probs[:i])
	}
	return f
}

func sameFactories(a, b []Factory) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// setup checks that every target has one value per row of X, validates the
// selecting targets on the first n rows and cuts those into folds. The folds
// of an earlier problem with the same rows cross-validated, fold count and
// seed are cut the same way, and share their positions.
func (pr *problem) setup(pb Problem, earlier []problem) error {
	X, n, k := pb.X, pb.Sel, pb.K
	pr.factories, pr.n, pr.seed = pb.Factories, n, pb.Seed
	pr.cols = make([]column, len(pb.Targets))
	selecting := 0
	for t, tg := range pb.Targets {
		if len(tg.Y) != len(X) {
			return fmt.Errorf("%w: %d rows vs %d targets", ErrDimMismatch, len(X), len(tg.Y))
		}
		c := &pr.cols[t]
		c.y, c.fam = tg.Y, tg.Family
		if !tg.Select {
			continue
		}
		if _, err := validate(X[:n], tg.Y[:n]); err != nil {
			return err
		}
		selecting++
	}
	if selecting == 0 {
		return nil
	}
	if n < 2 {
		return fmt.Errorf("model: cross-validation produced no folds")
	}
	pr.k = min(max(k, 2), n)
	k = pr.k
	pr.folds = make([]split, k)
	pr.cut(earlier)
	rows := make([][]float64, k*n)
	for fo := range pr.folds {
		s := &pr.folds[fo]
		s.trX, s.vaX = rows[fo*n:][:len(s.tr)], rows[fo*n+len(s.tr):][:len(s.va)]
		for i, p := range s.tr {
			s.trX[i] = X[p]
		}
		for i, p := range s.va {
			s.vaX[i] = X[p]
		}
		s.rows.X = s.trX
	}
	nf := len(pr.factories)
	if pr.names == nil {
		pr.protos, pr.names = make([]Model, nf), make([]string, nf)
		for fam, fac := range pr.factories {
			pr.protos[fam] = fac()
			pr.names[fam] = pr.protos[fam].Name()
		}
	}
	var all []int
	ws := make([]waves, selecting)
	for t, tg := range pb.Targets {
		c := &pr.cols[t]
		if !tg.Select {
			continue
		}
		c.waves, ws = &ws[0], ws[1:]
		ys, cut := make([]float64, k*n), make([][]float64, 2*k)
		c.trY, c.vaY = cut[:k], cut[k:]
		for fo := range pr.folds {
			s := &pr.folds[fo]
			c.trY[fo], c.vaY[fo] = ys[fo*n:][:len(s.tr)], ys[fo*n+len(s.tr):][:len(s.va)]
			gather(c.trY[fo], c.y, s.tr)
			gather(c.vaY[fo], c.y, s.va)
		}
		if c.fams = tg.Families; len(c.fams) == 0 {
			if all == nil {
				all = make([]int, nf)
				for fam := range all {
					all[fam] = fam
				}
			}
			c.fams = all
		}
		nc := len(c.fams)
		c.preds, c.flat = make([][]float64, nc*k), make([]float64, nc*n)
		sums := make([]float64, 2*nc)
		c.se, c.re, c.dropped = sums[:nc], sums[nc:], make([]bool, nc)
		c.lead = max(slices.Index(c.fams, c.fam), 0)
	}
	return nil
}

// cut sets every fold's positions: the k-th of the rows shuffled by the seed
// are held out in turn. They are an earlier problem's when it cut the same.
func (pr *problem) cut(earlier []problem) {
	n, k := pr.n, pr.k
	for i := range earlier {
		if e := &earlier[i]; e.folds != nil && e.n == n && e.k == k && e.seed == pr.seed {
			for fo := range pr.folds {
				s, es := &pr.folds[fo], &e.folds[fo]
				s.tr, s.va, s.off = es.tr, es.va, es.off
			}
			return
		}
	}
	// With 2 <= k <= n both sides of every fold are non-empty.
	idx, off := make([]int, k*n), 0
	for fo := range pr.folds {
		s := &pr.folds[fo]
		va := (n - fo + k - 1) / k // the i < n with i%k == fo
		s.tr, s.va, s.off = idx[fo*n:fo*n:fo*n+n-va], idx[fo*n+n-va:fo*n+n-va:(fo+1)*n], off
		off += va
	}
	for i, p := range newRand(pr.seed).Perm(n) {
		s := &pr.folds[i%k]
		s.va = append(s.va, p)
		for fo := range pr.folds {
			if fo != i%k {
				pr.folds[fo].tr = append(pr.folds[fo].tr, p)
			}
		}
	}
}

// run queues every selecting target's wave 0 and, in a Fit, the whole-buffer
// Train of every other target, problem by problem, then works the graph to
// the end. It returns the summed job time.
func (f *fit) run() time.Duration {
	jobs := 0
	for i := range f.probs {
		pr := &f.probs[i]
		if pr.err != nil {
			continue
		}
		for t := range pr.cols {
			c := &pr.cols[t]
			switch {
			case c.waves != nil:
				for cand := range c.fams {
					lo, hi := f.span(pr, c, cand)
					jobs += hi - lo
				}
			case pr.whole != nil:
				jobs++
			}
		}
	}
	// Room for the first jobs, so that queueing them allocates once.
	f.pool.queue = make([]job, 0, jobs)
	for i := range f.probs {
		pr := &f.probs[i]
		if pr.err != nil {
			continue
		}
		for t := range pr.cols {
			switch {
			case pr.cols[t].waves != nil:
				f.queueWave(i, t)
			case pr.whole != nil:
				f.pool.push(job{i, t, 0, -1})
			}
		}
	}
	return f.pool.run()
}

// span is the folds of one candidate that the column's current wave trains:
// all of them in wave 0 for the lead (and for everyone on the full grid), else
// the wave's own.
func (f *fit) span(pr *problem, c *column, cand int) (lo, hi int) {
	switch {
	case c.dropped[cand]:
		return 0, 0
	case f.key != nil && cand != c.lead:
		return c.wave, c.wave + 1
	case c.wave == 0:
		return 0, pr.k
	}
	return 0, 0
}

// queueWave queues the cells of the column's current wave. The column holds
// one extra count while they are queued, so the wave cannot complete under
// the loop; if they have all finished by then (or there were none), the wave
// is completed here.
func (f *fit) queueWave(p, t int) {
	pr := &f.probs[p]
	c := &pr.cols[t]
	for {
		c.left.Store(1)
		for cand := range c.fams {
			for fold, hi := f.span(pr, c, cand); fold < hi; fold++ {
				c.left.Add(1)
				f.pool.push(job{p, t, cand, fold})
			}
		}
		if c.left.Add(-1) > 0 || !f.endWave(p, t) {
			return
		}
	}
}

func (f *fit) do(k *kit, j job) {
	pr := &f.probs[j.prob]
	c := &pr.cols[j.col]
	if j.fold < 0 {
		// A model the caller keeps is its factory's own, trained in the
		// kit's scratch.
		c.model = pr.factories[c.fam]()
		if m, ok := ownTrainer(c.model); ok {
			c.err = m.train(&k.scratch, pr.whole, c.y, &pr.wholeRows)
		} else {
			c.err = c.model.Train(pr.whole, c.y)
		}
		return
	}
	s := &pr.folds[j.fold]
	fam := c.fams[j.cand]
	var m Model
	var err error
	if t, ok := k.cellModel(pr.protos[fam]); ok {
		m, err = t, t.train(&k.scratch, s.trX, c.trY[j.fold], &s.rows)
	} else {
		m = pr.factories[fam]()
		err = m.Train(s.trX, c.trY[j.fold])
	}
	if err == nil {
		out := c.flat[j.cand*pr.n+s.off:][:len(s.vaX)]
		for i, x := range s.vaX {
			out[i] = m.Predict(x)
		}
		c.preds[j.cand*pr.k+j.fold] = out
	}
	if c.left.Add(-1) == 0 && f.endWave(j.prob, j.col) {
		f.queueWave(j.prob, j.col)
	}
}

// endWave reduces the column's completed wave in (family, fold, sample)
// order, drops what the lead's score already rules out and moves to the next
// wave, reporting whether there is one. After the last it settles the
// selection and, in a Fit, queues the winner's whole-buffer Train.
func (f *fit) endWave(p, t int) bool {
	pr := &f.probs[p]
	c := &pr.cols[t]
	nc := len(c.fams)
	for cand := range nc {
		lo, hi := f.span(pr, c, cand)
		c.reduce(cand, lo, hi, pr.k)
		c.trained += hi - lo
	}
	if c.wave++; c.wave < pr.k {
		if f.key != nil {
			bound := f.key(pr.score(c, c.lead))
			for cand := 1; cand < nc; cand++ {
				c.dropped[cand] = c.dropped[cand] || f.key(pr.score(c, cand)) > bound
			}
		}
		return true
	}
	scores := make([]Score, nc)
	for cand := range scores {
		scores[cand] = pr.score(c, cand)
		scores[cand].Name = pr.names[c.fams[cand]]
	}
	c.sel = Selection{Scores: scores, Trained: c.trained, Skipped: nc*pr.k - c.trained}
	if f.key != nil {
		c.sel.Best = c.fams[Best(scores, f.key)]
		c.fam = c.sel.Best
	}
	if pr.whole != nil {
		f.pool.push(job{p, t, 0, -1})
	}
	return false
}

func (pr *problem) score(c *column, cand int) Score {
	return Score{RMSE: math.Sqrt(c.se[cand] / float64(pr.n)), RelErr: c.re[cand] / float64(pr.n), Bound: c.dropped[cand]}
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

// gather writes y at the positions idx to out.
func gather(out, y []float64, idx []int) {
	for i, p := range idx {
		out[i] = y[p]
	}
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
