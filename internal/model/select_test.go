package model

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// byRMSE selects by root-mean-square error: the tests hold the selection
// engine to the same answers under both of Score's errors.
func byRMSE(s Score) float64 { return s.RMSE }

// stub is a family with a fixed prediction rule and, optionally, folds it
// cannot train on.
type stub struct {
	name    string
	predict func(x []float64) float64
	fails   func(X [][]float64) bool
}

func (s stub) Name() string { return s.name }

func (s stub) Train(X [][]float64, _ []float64) error {
	if s.fails != nil && s.fails(X) {
		return errors.New(s.name + ": cannot train")
	}
	return nil
}

func (s stub) Predict(x []float64) float64 { return s.predict(x) }

func stubFamily(name string, predict func(x []float64) float64, fails func(X [][]float64) bool) Factory {
	return func() Model { return stub{name, predict, fails} }
}

func always([][]float64) bool { return true }

// holdsOut fails on the folds that hold out the row whose first feature is
// marker.
func holdsOut(marker float64) func(X [][]float64) bool {
	return func(X [][]float64) bool {
		for _, row := range X {
			if row[0] == marker {
				return false
			}
		}
		return true
	}
}

// selectZoo mixes real families with stubs that hit every corner of Best:
// exact ties (two pairs of identical families), NaN and ±Inf predictions on
// some rows only, a family that never trains and one that fails a single
// fold, and predictors good enough to give a tight bound. X seeds the
// row-dependent stubs.
func selectZoo(X [][]float64, seed int64) []Factory {
	onRow := func(row int, special, otherwise float64) func(x []float64) float64 {
		return func(x []float64) float64 {
			if x[0] == X[row][0] {
				return special
			}
			return nonlinearFn(x) + otherwise
		}
	}
	return []Factory{
		func() Model { return NewLinear() },
		stubFamily("Exact", nonlinearFn, nil),
		func() Model { return NewKNN(3) },
		stubFamily("ExactAgain", nonlinearFn, nil),
		stubFamily("LateNaN", onRow(len(X)-1, math.NaN(), 0), nil),
		stubFamily("LateInf", onRow(len(X)-2, math.Inf(1), 0), nil),
		stubFamily("NegInf", onRow(1, math.Inf(-1), 0), nil),
		func() Model { return NewTree(8, 2) },
		stubFamily("NeverTrains", nonlinearFn, always),
		stubFamily("FailsOneFold", nonlinearFn, holdsOut(X[len(X)/2][0])),
		func() Model { return NewLinear() },
		func() Model { return NewBagging(3, seed) },
		stubFamily("Off", func(x []float64) float64 { return nonlinearFn(x) + 0.25 }, nil),
		func() Model { return NewMLP(4, 20, 0.05, seed) },
		stubFamily("Far", func([]float64) float64 { return 1e9 }, nil),
	}
}

// selectColumns are target columns over one X: a smooth one, one with zero
// targets (which the relative error skips), an all-zero one (every relative
// error is 0: one big tie), one spanning many orders of magnitude and one
// holding an infinite target.
func selectColumns(X [][]float64, y []float64) [][]float64 {
	n := len(X)
	zeros, allZero, wide, inf := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range X {
		zeros[i], wide[i], inf[i] = y[i], math.Exp(y[i]), y[i]
		if i%3 == 0 {
			zeros[i] = 0
		}
	}
	inf[n/3] = math.Inf(1)
	return [][]float64{y, zeros, allZero, wide, inf}
}

func sameScore(a, b Score) bool {
	return a.Name == b.Name && math.Float64bits(a.RMSE) == math.Float64bits(b.RMSE) &&
		math.Float64bits(a.RelErr) == math.Float64bits(b.RelErr)
}

// checkSelection holds one bounded selection against the full grid: the same
// winner, every family that was not dropped scored bit for bit as the grid
// scores it, every dropped one on a bound that some family beats and that its
// own full score reaches, family 0 and the winner never dropped, and the cell
// counts adding up.
func checkSelection(t *testing.T, label string, sel Selection, full []Score, key func(Score) float64, k int) {
	t.Helper()
	if want := Best(full, key); sel.Best != want {
		t.Errorf("%s: bounded selection picked %d (%s), the full grid picks %d (%s)\n bounded %+v\n full    %+v",
			label, sel.Best, full[sel.Best].Name, want, full[want].Name, sel.Scores, full)
	}
	if sel.Trained+sel.Skipped != len(full)*k || sel.Trained < k {
		t.Errorf("%s: %d cells trained + %d skipped, want a split of %d", label, sel.Trained, sel.Skipped, len(full)*k)
	}
	for fam, s := range sel.Scores {
		switch {
		case !s.Bound:
			if !sameScore(s, full[fam]) {
				t.Errorf("%s: family %d scored %+v, the full grid scores it %+v", label, fam, s, full[fam])
			}
		case fam == 0 || fam == sel.Best:
			t.Errorf("%s: family %d was dropped (winner %d)", label, fam, sel.Best)
		case key(s) > key(full[fam]):
			t.Errorf("%s: dropped family %d has bound %v above its full score %v", label, fam, key(s), key(full[fam]))
		case !slices.ContainsFunc(full, func(o Score) bool { return key(o) < key(s) }):
			t.Errorf("%s: dropped family %d has bound %v, which no family beats: %+v", label, fam, key(s), full)
		}
	}
}

// The bounded selection is invisible: for every lead hint, both keys and any
// worker count it picks the family the full grid picks, and which cells it
// trains depends on the data and the lead alone. Targets selected side by
// side equal targets selected one at a time.
func TestSelectMatchesFullGrid(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const k = 5
	X, y := synth(23, 3, 31, nonlinearFn, 0.2)
	ys := selectColumns(X, y)
	base := selectZoo(X, 5)
	// The second zoo puts a family with a NaN key first: Best then returns
	// it whatever the others score, and so must the bounded selection.
	nanFirst := append([]Factory{base[4]}, base...)
	keys := []struct {
		name string
		key  func(Score) float64
	}{{"rmse", byRMSE}, {"relerr", ByRelErr}}

	skipped := 0
	for zi, zoo := range [][]Factory{base, nanFirst} {
		full := make([][]Score, len(ys))
		for c, y := range ys {
			var err error
			if full[c], err = CrossValidate(zoo, X, y, k, 9); err != nil {
				t.Fatal(err)
			}
		}
		for _, kc := range keys {
			for lead := -1; lead < len(zoo); lead++ {
				leads := make([]int, len(ys))
				for c := range leads {
					leads[c] = lead
				}
				var want []Selection
				for _, procs := range []int{1, 2, 4, 8} {
					runtime.GOMAXPROCS(procs)
					got, err := Select(zoo, X, ys, leads, k, 9, kc.key)
					if err != nil {
						t.Fatal(err)
					}
					for c := range ys {
						label := func(what string) string {
							return fmt.Sprintf("%s: zoo %d, key %s, column %d, lead %d, GOMAXPROCS=%d", what, zi, kc.name, c, lead, procs)
						}
						if want == nil {
							checkSelection(t, label("vs full grid"), got[c], full[c], kc.key, k)
							alone, err := Select(zoo, X, ys[c:c+1], leads[c:c+1], k, 9, kc.key)
							if err != nil {
								t.Fatal(err)
							}
							if alone[0].Best != got[c].Best || alone[0].Trained != got[c].Trained {
								t.Errorf("%s: side by side picked %d over %d cells, alone %d over %d",
									label("alone"), got[c].Best, got[c].Trained, alone[0].Best, alone[0].Trained)
							}
							skipped += got[c].Skipped
							continue
						}
						if got[c].Best != want[c].Best || got[c].Trained != want[c].Trained {
							t.Errorf("%s: picked %d over %d cells, on one worker %d over %d",
								label("worker count"), got[c].Best, got[c].Trained, want[c].Best, want[c].Trained)
						}
						for fam := range got[c].Scores {
							if !sameScore(got[c].Scores[fam], want[c].Scores[fam]) || got[c].Scores[fam].Bound != want[c].Scores[fam].Bound {
								t.Errorf("%s: family %d scored %+v, on one worker %+v", label("worker count"), fam, got[c].Scores[fam], want[c].Scores[fam])
							}
						}
					}
					if want == nil {
						want = got
					}
				}
			}
		}
	}
	if skipped == 0 {
		t.Error("no selection skipped a cell: the test never exercised the bound")
	}
}

// The number of trained cells is an exact function of the data and the lead.
// Here an exact predictor leads: after wave 0 only what ties it (its twin)
// and family 0 survive, so of 4 families x 4 folds the lead trains 4 cells,
// the twin and family 0 four each, and the far-off family its first fold.
func TestSelectTrainedCellCount(t *testing.T) {
	X, y := synth(16, 2, 3, nonlinearFn, 0)
	zoo := []Factory{
		stubFamily("Off", func(x []float64) float64 { return nonlinearFn(x) + 1 }, nil),
		stubFamily("Exact", nonlinearFn, nil),
		stubFamily("Far", func([]float64) float64 { return 1e9 }, nil),
		stubFamily("ExactAgain", nonlinearFn, nil),
	}
	for _, tc := range []struct{ lead, trained, best int }{
		{lead: 1, trained: 13, best: 1},
		{lead: 3, trained: 13, best: 1},  // the tie still resolves to the earlier twin
		{lead: 2, trained: 16, best: 1},  // the worst family bounds nothing
		{lead: -1, trained: 13, best: 1}, // family 0 leads
	} {
		sels, err := Select(zoo, X, [][]float64{y}, []int{tc.lead}, 4, 1, byRMSE)
		if err != nil {
			t.Fatal(err)
		}
		if sels[0].Best != tc.best || sels[0].Trained != tc.trained || sels[0].Skipped != 16-tc.trained {
			t.Errorf("lead %d: picked %d, %d cells trained, %d skipped; want %d, %d, %d",
				tc.lead, sels[0].Best, sels[0].Trained, sels[0].Skipped, tc.best, tc.trained, 16-tc.trained)
		}
		if dropped := sels[0].Scores[2].Bound; dropped != (tc.lead != 2) {
			t.Errorf("lead %d: far-off family dropped = %v", tc.lead, dropped)
		}
	}
}

// A family that cannot train must not score better than one that can: a
// failed fold counts as +Inf under both keys (the relative error used to
// count it as nothing, so a family failing every fold scored 0 and won).
func TestSelectNeverPicksAFamilyThatCannotTrain(t *testing.T) {
	X, y := synth(20, 2, 11, nonlinearFn, 0.3)
	zoo := []Factory{
		stubFamily("NeverTrains", nonlinearFn, always),
		stubFamily("FailsOneFold", nonlinearFn, holdsOut(X[4][0])),
		stubFamily("Far", func([]float64) float64 { return 1e9 }, nil),
	}
	scores, err := CrossValidate(zoo, X, y, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scores[:2] {
		if !math.IsInf(s.RMSE, 1) || !math.IsInf(s.RelErr, 1) {
			t.Errorf("%s scored %+v, want +Inf under both keys", s.Name, s)
		}
	}
	for name, key := range map[string]func(Score) float64{"rmse": byRMSE, "relerr": ByRelErr} {
		if best := Best(scores, key); best != 2 {
			t.Errorf("%s: the full grid picks %s over a family that trains on every fold", name, scores[best].Name)
		}
		for lead := -1; lead < len(zoo); lead++ {
			sels, err := Select(zoo, X, [][]float64{y}, []int{lead}, 5, 2, key)
			if err != nil {
				t.Fatal(err)
			}
			if sels[0].Best != 2 {
				t.Errorf("%s, lead %d: selection picks %s", name, lead, scores[sels[0].Best].Name)
			}
		}
	}
	m, _, err := SelectBestRelative(zoo, X, y, 5, 2)
	if err != nil || m.Name() != "Far" {
		t.Errorf("SelectBestRelative = %v, %v; want the one family that trains", m, err)
	}
}

// selectInput is one FuzzSelect input.
type selectInput struct {
	rows, dims, k uint8
	seed          int64
	lead          int8
}

// selectCorpus is FuzzSelect's seed corpus.
var selectCorpus = []selectInput{
	{23, 3, 5, 9, -1},
	{2, 1, 2, 1, 0},
	{3, 2, 10, 7, 13},
	{40, 4, 3, 42, 8},
	{17, 2, 17, -5, 100},
}

// fuzzSelectInput builds FuzzSelect's data: duplicated rows, zero, huge and
// repeated targets, over selectZoo.
func fuzzSelectInput(rows, dims uint8, seed int64) ([][]float64, []float64, []Factory) {
	n, d := 2+int(rows)%47, 1+int(dims)%5
	rng := rand.New(rand.NewSource(seed))
	X, y := synth(n, d+1, seed, nonlinearFn, 0.3)
	for i := range X {
		switch rng.Intn(8) {
		case 0:
			y[i] = 0
		case 1:
			y[i] *= 1e12
		case 2:
			X[i], y[i] = X[rng.Intn(n)], y[rng.Intn(n)]
		}
	}
	return X, y, selectZoo(X, seed)
}

// FuzzSelect holds the bounded selection against the full grid and against
// the wave loop it replaced on data nobody wrote down.
func FuzzSelect(f *testing.F) {
	for _, in := range selectCorpus {
		f.Add(in.rows, in.dims, in.k, in.seed, in.lead)
	}
	f.Fuzz(func(t *testing.T, rows, dims, k uint8, seed int64, lead int8) {
		X, y, zoo := fuzzSelectInput(rows, dims, seed)
		folds := min(max(int(k), 2), len(X))
		full, err := CrossValidate(zoo, X, y, int(k), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []func(Score) float64{byRMSE, ByRelErr} {
			sels, err := Select(zoo, X, [][]float64{y}, []int{int(lead)}, int(k), seed, key)
			if err != nil {
				t.Fatal(err)
			}
			checkSelection(t, "fuzz", sels[0], full, key, folds)
			want, err := naiveSelect(zoo, X, [][]float64{y}, []int{int(lead)}, int(k), seed, key)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSelections(sels, want); err != nil {
				t.Errorf("vs the wave loop: %v", err)
			}
		}
	})
}
