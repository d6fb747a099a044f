package model

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// naiveColumn is one target's state through naiveSelect's waves.
type naiveColumn struct {
	trY, vaY [][]float64
	preds    [][]float64
	lead     int
	se, re   []float64
	dropped  []bool
	trained  int
}

// naiveSelect is the selection as it was before each target walked its own
// waves: every target's cells of wave j are trained (here one after the
// other), then every target is reduced and pruned, then wave j+1 starts. Its
// fold shuffle draws from math/rand itself. With key nil it is the full grid.
func naiveSelect(factories []Factory, X [][]float64, ys [][]float64, leads []int, k int, seed int64, key func(Score) float64) ([]Selection, error) {
	for _, y := range ys {
		if _, err := validate(X, y); err != nil {
			return nil, err
		}
	}
	if len(X) < 2 {
		return nil, fmt.Errorf("model: cross-validation produced no folds")
	}
	k = min(max(k, 2), len(X))
	n, nf := len(X), len(factories)
	perm := rand.New(rand.NewSource(seed)).Perm(n)
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
	cols := make([]naiveColumn, len(ys))
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
	span := func(c *naiveColumn, fam, wave int) (lo, hi int) {
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
	score := func(c *naiveColumn, fam int) Score {
		return Score{RMSE: math.Sqrt(c.se[fam] / float64(n)), RelErr: c.re[fam] / float64(n), Bound: c.dropped[fam]}
	}
	for wave := 0; wave < k; wave++ {
		for t := range cols {
			c := &cols[t]
			for fam := 0; fam < nf; fam++ {
				for fold, hi := span(c, fam, wave); fold < hi; fold++ {
					s := &folds[fold]
					m := factories[fam]()
					if m.Train(s.trX, c.trY[fold]) != nil {
						continue
					}
					out := make([]float64, len(s.vaX))
					for i, x := range s.vaX {
						out[i] = m.Predict(x)
					}
					c.preds[fam*k+fold] = out
				}
			}
		}
		for t := range cols {
			c := &cols[t]
			for fam := 0; fam < nf; fam++ {
				lo, hi := span(c, fam, wave)
				// Accumulated in locals, as the wave loop did: which NaN
				// payload survives an addition depends on the operand order.
				se, re := c.se[fam], c.re[fam]
				for fold := lo; fold < hi; fold++ {
					if c.preds[fam*k+fold] == nil {
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
	sels := make([]Selection, len(cols))
	for t := range cols {
		scores := make([]Score, nf)
		for fam := range scores {
			scores[fam] = score(&cols[t], fam)
			scores[fam].Name = factories[fam]().Name()
		}
		sels[t] = Selection{Scores: scores, Trained: cols[t].trained, Skipped: nf*k - cols[t].trained}
		if key != nil {
			sels[t].Best = Best(scores, key)
		}
	}
	return sels, nil
}

// sameSelections reports the first difference between two selections: Best,
// Trained, Skipped, and every Score's name, Bound and the bits of both keys.
func sameSelections(got, want []Selection) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d selections, want %d", len(got), len(want))
	}
	for t := range want {
		g, w := got[t], want[t]
		if g.Best != w.Best || g.Trained != w.Trained || g.Skipped != w.Skipped || len(g.Scores) != len(w.Scores) {
			return fmt.Errorf("column %d: best %d, %d trained, %d skipped; want %d, %d, %d", t, g.Best, g.Trained, g.Skipped, w.Best, w.Trained, w.Skipped)
		}
		for fam := range w.Scores {
			if !sameScore(g.Scores[fam], w.Scores[fam]) || g.Scores[fam].Bound != w.Scores[fam].Bound {
				return fmt.Errorf("column %d, family %d: %+v, want %+v", t, fam, g.Scores[fam], w.Scores[fam])
			}
		}
	}
	return nil
}

// The job graph is a schedule of the wave loop, not a new selection: on the
// zoos and columns of TestSelectMatchesFullGrid, with a different lead per
// column, both keys and the full grid, and at 1, 2 and 8 workers, Select and
// CrossValidate return what naiveSelect returns, bit for bit.
func TestSelectMatchesNaive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const k = 5
	X, y := synth(23, 3, 31, nonlinearFn, 0.2)
	ys := selectColumns(X, y)
	base := selectZoo(X, 5)
	for zi, zoo := range [][]Factory{base, append([]Factory{base[4]}, base...)} {
		full, err := naiveSelect(zoo, X, ys, nil, k, 9, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for c, y := range ys {
				scores, err := CrossValidate(zoo, X, y, k, 9)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameSelections([]Selection{{Scores: scores, Trained: len(zoo) * k}}, full[c:c+1]); err != nil {
					t.Errorf("zoo %d, full grid, column %d, GOMAXPROCS=%d: %v", zi, c, procs, err)
				}
			}
		}
		for _, key := range []func(Score) float64{byRMSE, ByRelErr} {
			// Each column leads with a different family, so every family leads
			// some column within len(zoo)/len(ys) rounds.
			for lead := -1; lead < len(zoo); lead += len(ys) {
				leads := make([]int, len(ys))
				for c := range leads {
					leads[c] = (lead + c) % len(zoo)
				}
				want, err := naiveSelect(zoo, X, ys, leads, k, 9, key)
				if err != nil {
					t.Fatal(err)
				}
				for _, procs := range []int{1, 2, 8} {
					runtime.GOMAXPROCS(procs)
					got, err := Select(zoo, X, ys, leads, k, 9, key)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameSelections(got, want); err != nil {
						t.Errorf("zoo %d, leads %v, GOMAXPROCS=%d: %v", zi, leads, procs, err)
					}
				}
			}
		}
	}
}

// On the FuzzSelect corpus too, at 1, 2 and 8 workers.
func TestSelectMatchesNaiveOnFuzzCorpus(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, in := range selectCorpus {
		X, y, zoo := fuzzSelectInput(in.rows, in.dims, in.seed)
		for _, key := range []func(Score) float64{byRMSE, ByRelErr} {
			want, err := naiveSelect(zoo, X, [][]float64{y}, []int{int(in.lead)}, int(in.k), in.seed, key)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				got, err := Select(zoo, X, [][]float64{y}, []int{int(in.lead)}, int(in.k), in.seed, key)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameSelections(got, want); err != nil {
					t.Errorf("%+v, GOMAXPROCS=%d: %v", in, procs, err)
				}
			}
		}
	}
}

// referenceMLPTrain is MLP.Train as it was before the weights became flat
// rows: nested slices, a fresh math/rand source. It returns the weights.
func referenceMLPTrain(m *MLP, X [][]float64, y []float64) (w1 [][]float64, w2 []float64) {
	dims := len(X[0])
	std, tgt := fitStandardizer(X), fitTargetScaler(y)
	Z := std.applyAll(X)
	T := make([]float64, len(y))
	for i, v := range y {
		T[i] = tgt.encode(v)
	}
	rng := rand.New(rand.NewSource(m.seed))
	w1 = make([][]float64, m.hidden)
	for h := range w1 {
		w1[h] = make([]float64, dims+1)
		for j := range w1[h] {
			w1[h][j] = rng.NormFloat64() * 0.5
		}
	}
	w2 = make([]float64, m.hidden+1)
	for j := range w2 {
		w2[j] = rng.NormFloat64() * 0.5
	}
	n := float64(len(Z))
	act := make([]float64, m.hidden+1)
	g1 := make([][]float64, m.hidden)
	for h := range g1 {
		g1[h] = make([]float64, dims+1)
	}
	g2 := make([]float64, m.hidden+1)
	for epoch := 0; epoch < m.epochs; epoch++ {
		for h := range g1 {
			clear(g1[h])
		}
		clear(g2)
		for i, z := range Z {
			for h := 0; h < m.hidden; h++ {
				s := w1[h][dims]
				for j := 0; j < dims; j++ {
					s += w1[h][j] * z[j]
				}
				act[h] = math.Tanh(s)
			}
			act[m.hidden] = 1
			out := dot(act, w2)
			errOut := out - T[i]
			for h := 0; h <= m.hidden; h++ {
				g2[h] += errOut * act[h]
			}
			for h := 0; h < m.hidden; h++ {
				dh := errOut * w2[h] * (1 - act[h]*act[h])
				for j := 0; j < dims; j++ {
					g1[h][j] += dh * z[j]
				}
				g1[h][dims] += dh
			}
		}
		for h := 0; h <= m.hidden; h++ {
			w2[h] -= m.lr * g2[h] / n
		}
		for h := 0; h < m.hidden; h++ {
			for j := 0; j <= dims; j++ {
				w1[h][j] -= m.lr * g1[h][j] / n
			}
		}
	}
	return w1, w2
}

// referenceMLPPredict is MLP.Predict over referenceMLPTrain's weights.
func referenceMLPPredict(m *MLP, w1 [][]float64, w2 []float64, x []float64) float64 {
	z := m.std.apply(x)
	act := make([]float64, m.hidden+1)
	for h := 0; h < m.hidden; h++ {
		s := w1[h][m.inDims]
		for j := 0; j < m.inDims && j < len(z); j++ {
			s += w1[h][j] * z[j]
		}
		act[h] = math.Tanh(s)
	}
	act[m.hidden] = 1
	return m.tgt.decode(dot(act, w2))
}

// Flat weight rows train the same bits as nested slices: every weight and
// every prediction, over random shapes (1 to 300 rows, 1 to 8 dims).
func TestMLPTrainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][2]int{{1, 1}, {2, 8}, {300, 8}, {100, 6}, {300, 1}}
	for len(shapes) < 30 {
		shapes = append(shapes, [2]int{1 + rng.Intn(300), 1 + rng.Intn(8)})
	}
	for i, sh := range shapes {
		n, dims := sh[0], sh[1]
		X, y := synth(n, dims, int64(i), nonlinearFn2, 0.3)
		hidden, epochs := 1+rng.Intn(8), []int{1, 20, 60}[rng.Intn(3)]
		m := NewMLP(hidden, epochs, 0.05, rng.Int63n(100)-50)
		if err := m.Train(X, y); err != nil {
			t.Fatal(err)
		}
		w1, w2 := referenceMLPTrain(m, X, y)
		flat := slices.Concat(w1...)
		if !slices.EqualFunc(m.w1, flat, sameBits) || !slices.EqualFunc(m.w2, w2, sameBits) {
			t.Fatalf("shape %dx%d, %d hidden, %d epochs: weights differ from the nested-slice reference", n, dims, hidden, epochs)
		}
		probe, _ := synth(20, dims, int64(i)+1000, nonlinearFn2, 0)
		for _, x := range append(probe, X...) {
			if got, want := m.Predict(x), referenceMLPPredict(m, w1, w2, x); !sameBits(got, want) {
				t.Fatalf("shape %dx%d: Predict(%v) = %v, reference %v", n, dims, x, got, want)
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// close9 reports whether a and b agree to 1e-9 relative, NaN matching NaN.
func close9(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b || math.Abs(a-b) <= 1e-9*max(math.Abs(a), math.Abs(b))
}

// referenceDistinctRows groups rows by a quadratic scan over their bits.
func referenceDistinctRows(X [][]float64) (rows [][]float64, group []int) {
	group = make([]int, len(X))
	for i, x := range X {
		g := slices.IndexFunc(rows, func(r []float64) bool { return slices.EqualFunc(r, x, sameBits) })
		if g < 0 {
			g, rows = len(rows), append(rows, x)
		}
		group[i] = g
	}
	return rows, group
}

// referenceGroupedMLPTrain is referenceMLPTrain with an epoch over distinct
// rows: nested slices, a quadratic grouping, a fresh math/rand source. It
// returns the weights.
func referenceGroupedMLPTrain(m *MLP, X [][]float64, y []float64) (w1 [][]float64, w2 []float64) {
	dims := len(X[0])
	std, tgt := fitStandardizer(X), fitTargetScaler(y)
	rows, group := referenceDistinctRows(X)
	Z := std.applyAll(rows)
	count, sumT := make([]float64, len(rows)), make([]float64, len(rows))
	for i, g := range group {
		if count[g] == 0 {
			sumT[g] = tgt.encode(y[i])
		} else {
			sumT[g] += tgt.encode(y[i])
		}
		count[g]++
	}
	rng := rand.New(rand.NewSource(m.seed))
	w1 = make([][]float64, m.hidden)
	for h := range w1 {
		w1[h] = make([]float64, dims+1)
		for j := range w1[h] {
			w1[h][j] = rng.NormFloat64() * 0.5
		}
	}
	w2 = make([]float64, m.hidden+1)
	for j := range w2 {
		w2[j] = rng.NormFloat64() * 0.5
	}
	n := float64(len(X))
	act := make([]float64, m.hidden+1)
	for epoch := 0; epoch < m.epochs; epoch++ {
		g1 := make([][]float64, m.hidden)
		for h := range g1 {
			g1[h] = make([]float64, dims+1)
		}
		g2 := make([]float64, m.hidden+1)
		for g, z := range Z {
			for h := 0; h < m.hidden; h++ {
				s := w1[h][dims]
				for j := 0; j < dims; j++ {
					s += w1[h][j] * z[j]
				}
				act[h] = math.Tanh(s)
			}
			act[m.hidden] = 1
			errOut := count[g]*dot(act, w2) - sumT[g]
			for h := 0; h <= m.hidden; h++ {
				g2[h] += errOut * act[h]
			}
			for h := 0; h < m.hidden; h++ {
				dh := errOut * w2[h] * (1 - act[h]*act[h])
				for j := 0; j < dims; j++ {
					g1[h][j] += dh * z[j]
				}
				g1[h][dims] += dh
			}
		}
		for h := 0; h <= m.hidden; h++ {
			w2[h] -= m.lr * g2[h] / n
		}
		for h := 0; h < m.hidden; h++ {
			for j := 0; j <= dims; j++ {
				w1[h][j] -= m.lr * g1[h][j] / n
			}
		}
	}
	return w1, w2
}

// repeatedRows draws n rows from a pool of distinct synthetic rows, each
// with its own noisy target, so equal rows mostly carry different targets.
func repeatedRows(n, pool, dims int, seed int64) ([][]float64, []float64) {
	base, _ := synth(pool, dims, seed, nonlinearFn2, 0)
	rng := rand.New(rand.NewSource(seed + 1))
	X, y := make([][]float64, n), make([]float64, n)
	for i := range X {
		X[i] = slices.Clone(base[rng.Intn(pool)])
		y[i] = nonlinearFn2(X[i]) + rng.NormFloat64()*0.3
	}
	return X, y
}

// nonlinearFn2 is the MLP oracles' target.
func nonlinearFn2(x []float64) float64 { return 3*x[0] - math.Sin(x[len(x)-1]) }

// checkGroupedMLP trains m on (X, y) and holds it to the grouped reference
// bit for bit and to the per-row reference within 1e-9 relative, weights and
// predictions both; with exact set, to the per-row reference bit for bit.
func checkGroupedMLP(t *testing.T, name string, m *MLP, X [][]float64, y []float64, exact bool) {
	t.Helper()
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	gw1, gw2 := referenceGroupedMLPTrain(m, X, y)
	rw1, rw2 := referenceMLPTrain(m, X, y)
	grouped, perRow := slices.Concat(gw1...), slices.Concat(rw1...)
	if !slices.EqualFunc(m.w1, grouped, sameBits) || !slices.EqualFunc(m.w2, gw2, sameBits) {
		t.Fatalf("%s: weights differ from the grouped reference", name)
	}
	near := close9
	if exact {
		near = sameBits
	}
	if !slices.EqualFunc(m.w1, perRow, near) || !slices.EqualFunc(m.w2, rw2, near) {
		t.Fatalf("%s: weights %v %v, per-row reference %v %v", name, m.w1, m.w2, perRow, rw2)
	}
	for _, x := range X {
		got := m.Predict(x)
		if want := referenceMLPPredict(m, gw1, gw2, x); !sameBits(got, want) {
			t.Fatalf("%s: Predict(%v) = %v, grouped reference %v", name, x, got, want)
		}
		if want := referenceMLPPredict(m, rw1, rw2, x); !near(got, want) {
			t.Fatalf("%s: Predict(%v) = %v, per-row reference %v", name, x, got, want)
		}
	}
}

// With repeated rows the epoch runs once per distinct row: the same bits as
// the grouped nested-slice reference and within 1e-9 of the per-row one, on
// pools of 1 to 12 rows, all-identical rows, a -0/+0 pair and a NaN feature.
func TestMLPTrainOnRepeatsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n, pool, dims := 1+rng.Intn(300), 1+rng.Intn(12), 1+rng.Intn(8)
		X, y := repeatedRows(n, pool, dims, int64(trial))
		m := NewMLP(1+rng.Intn(8), []int{1, 20, 60, 300}[rng.Intn(4)], 0.05, rng.Int63n(100)-50)
		checkGroupedMLP(t, fmt.Sprintf("trial %d (%d rows from %d, %d dims)", trial, n, pool, dims), m, X, y, false)
	}
	same, sy := repeatedRows(200, 1, 4, 3)
	checkGroupedMLP(t, "all identical", NewMLP(8, 300, 0.05, 42), same, sy, false)

	// A column of zeros, every other one negative: each pool row splits into
	// a +0 and a -0 group, and the column standardizes to ±0.
	signed, zy := repeatedRows(120, 5, 3, 4)
	for i, x := range signed {
		x[1] = 0
		if i%2 == 1 {
			x[1] = math.Copysign(0, -1)
		}
	}
	checkGroupedMLP(t, "-0/+0 pair", NewMLP(6, 60, 0.05, 7), signed, zy, false)

	nan, ny := repeatedRows(90, 4, 2, 5)
	nan[7][0] = math.NaN()
	checkGroupedMLP(t, "NaN feature", NewMLP(4, 20, 0.05, 8), nan, ny, false)
}

// distinctRows groups as a quadratic scan over the bits does, with a fixed
// number of allocations whatever the row count.
func TestDistinctRowsMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan, otherNaN := math.NaN(), math.Float64frombits(math.Float64bits(math.NaN())^1)
	specials := []float64{0, negZero, nan, otherNaN, math.Inf(1), 1, 2}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 500; trial++ {
		n, dims, pool := rng.Intn(200), 1+rng.Intn(4), 1+rng.Intn(20)
		X := make([][]float64, n)
		for i := range X {
			X[i] = make([]float64, dims)
			for j := range X[i] {
				X[i][j] = specials[rng.Intn(min(pool, len(specials)))]
			}
		}
		rows, group := distinctRows(X)
		wantRows, wantGroup := referenceDistinctRows(X)
		if len(rows) != len(wantRows) || !slices.Equal(group, wantGroup) {
			t.Fatalf("trial %d: %d groups %v, reference %d groups %v", trial, len(rows), group, len(wantRows), wantGroup)
		}
		for g, r := range rows {
			if &r[0] != &wantRows[g][0] {
				t.Fatalf("trial %d: group %d's row is not the first of its rows", trial, g)
			}
		}
	}
	allocs := func(n int) float64 {
		X, _ := repeatedRows(n, 12, 3, 1)
		return testing.AllocsPerRun(20, func() { distinctRows(X) })
	}
	if small, large := allocs(10), allocs(1000); small != large {
		t.Errorf("distinctRows allocates %v times on 10 rows and %v on 1000", small, large)
	}
}

// referenceLinearPredict is Linear.Predict as it was before it standardized
// in place: through a std.apply slice.
func referenceLinearPredict(l *Linear, x []float64) float64 {
	z := l.std.apply(x)
	s := l.weights[len(l.weights)-1]
	for i := 0; i < len(l.weights)-1 && i < len(z); i++ {
		s += l.weights[i] * z[i]
	}
	return s
}

// referenceMedianSquaredResidual is the median of LeastMedSq as it was before
// it predicted once per distinct row: one Predict per row, then a sort.
func referenceMedianSquaredResidual(m Model, X [][]float64, y []float64) float64 {
	res := make([]float64, len(X))
	for i := range X {
		d := m.Predict(X[i]) - y[i]
		res[i] = d * d
	}
	sort.Float64s(res)
	return res[len(res)/2]
}

// The allocation-free predictions and the per-distinct-row median are the
// same bits as the code they replaced, on inputs with and without repeats and
// on feature vectors shorter and longer than the trained ones.
func TestPredictAndMedianMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n, dims := 2+rng.Intn(120), 1+rng.Intn(6)
		X, y := synth(n, dims, int64(trial), nonlinearFn2, 0.3)
		if trial%2 == 1 {
			X, y = repeatedRows(n, 1+rng.Intn(12), dims, int64(trial))
		}
		probes := append(slices.Clone(X), X[0][:dims-1], append(slices.Clone(X[0]), 5))
		lin := NewLinear()
		if err := lin.Train(X[:1+n/3], y[:1+n/3]); err != nil {
			t.Fatal(err)
		}
		mlp := NewMLP(1+rng.Intn(8), 5, 0.05, int64(trial))
		if err := mlp.Train(X, y); err != nil {
			t.Fatal(err)
		}
		w1 := make([][]float64, mlp.hidden)
		for h := range w1 {
			w1[h] = mlp.w1[h*(dims+1):][:dims+1]
		}
		gp := NewGaussianProcess(1, 0.1)
		if err := gp.Train(X, y); err != nil {
			t.Fatal(err)
		}
		for _, x := range probes {
			if got, want := lin.Predict(x), referenceLinearPredict(lin, x); !sameBits(got, want) {
				t.Fatalf("trial %d: Linear.Predict(%v) = %v, reference %v", trial, x, got, want)
			}
			if got, want := mlp.Predict(x), referenceMLPPredict(mlp, w1, mlp.w2, x); !sameBits(got, want) {
				t.Fatalf("trial %d: MLP.Predict(%v) = %v, reference %v", trial, x, got, want)
			}
			if got, want := gp.Predict(x), referenceGPPredict(gp, x); !sameBits(got, want) {
				t.Fatalf("trial %d: GaussianProcess.Predict(%v) = %v, reference %v", trial, x, got, want)
			}
		}
		rows, group := distinctRows(X)
		pred := make([]float64, len(rows))
		for g, x := range rows {
			pred[g] = lin.Predict(x)
		}
		got := medianSquaredResidual(pred, group, y, make([]float64, n))
		if want := referenceMedianSquaredResidual(lin, X, y); !sameBits(got, want) {
			t.Fatalf("trial %d: median squared residual %v, reference %v", trial, got, want)
		}
		if a := testing.AllocsPerRun(10, func() { lin.Predict(X[0]); mlp.Predict(X[0]); gp.Predict(X[0]) }); a != 0 {
			t.Fatalf("trial %d: Predict allocates %v times", trial, a)
		}
	}
}

// FuzzMLPDistinctRows holds the grouped epoch to both references on data
// nobody wrote down: pool 0 is all-distinct rows, which must train the
// per-row bits exactly; otherwise rows repeat from a pool of 1 to 12.
func FuzzMLPDistinctRows(f *testing.F) {
	for _, in := range [][5]uint8{{0, 0, 3, 4, 1}, {200, 1, 2, 8, 2}, {255, 12, 7, 1, 20}, {40, 3, 0, 3, 60}} {
		f.Add(in[0], in[1], in[2], in[3], in[4], int64(in[0]))
	}
	f.Fuzz(func(t *testing.T, rows, pool, dims, hidden, epochs uint8, seed int64) {
		n, p, d := 1+int(rows)%300, int(pool)%13, 1+int(dims)%8
		m := NewMLP(1+int(hidden)%8, 1+int(epochs)%60, 0.05, seed)
		if p == 0 {
			X, y := synth(n, d, seed, nonlinearFn2, 0.3)
			checkGroupedMLP(t, "distinct", m, X, y, true)
			return
		}
		X, y := repeatedRows(n, p, d, seed)
		checkGroupedMLP(t, "repeats", m, X, y, false)
	})
}

// referenceGPTrain is GaussianProcess.Train as it was before it fitted the
// replicate summary: one kernel row per row, the noise as the solve's ridge.
// It returns a GP with g's parameters trained that way.
func referenceGPTrain(g *GaussianProcess, X [][]float64, y []float64) (*GaussianProcess, error) {
	r := NewGaussianProcess(g.lengthScale, g.noise)
	r.std = fitStandardizer(X)
	r.tgt = fitTargetScaler(y)
	r.Z = r.std.applyAll(X)
	n := len(r.Z)
	var s lsq
	s.reset(n)
	for i, v := range y {
		s.b[i] = r.tgt.encode(v)
		for j := 0; j <= i; j++ {
			s.a[i*n+j] = r.kernel(sqDist(r.Z[i], r.Z[j]))
		}
	}
	alpha := make([]float64, n)
	if !s.solve(r.noise, alpha) {
		return nil, errNotPD
	}
	r.alpha = alpha
	return r, nil
}

// referenceGPPredict is GaussianProcess.Predict as it was before it
// standardized in place: through a std.apply slice.
func referenceGPPredict(g *GaussianProcess, x []float64) float64 {
	z := g.std.apply(x)
	s := 0.0
	for i, zi := range g.Z {
		s += g.alpha[i] * g.kernel(sqDist(z, zi))
	}
	return g.tgt.decode(s)
}

// referenceGroupedGPAlpha solves the replicate summary g's Train builds,
// through a quadratic grouping, nested slices and referenceSolveSPD.
func referenceGroupedGPAlpha(g *GaussianProcess, X [][]float64, y []float64) ([]float64, error) {
	std, tgt := fitStandardizer(X), fitTargetScaler(y)
	rows, group := referenceDistinctRows(X)
	Z := std.applyAll(rows)
	count, mean := make([]float64, len(Z)), make([]float64, len(Z))
	for i, gi := range group {
		if count[gi] == 0 {
			mean[gi] = tgt.encode(y[i])
		} else {
			mean[gi] += tgt.encode(y[i])
		}
		count[gi]++
	}
	K := make([][]float64, len(Z))
	for i := range K {
		mean[i] /= count[i]
		K[i] = make([]float64, len(Z))
		for j := 0; j <= i; j++ {
			K[i][j] = g.kernel(sqDist(Z[i], Z[j]))
			K[j][i] = K[i][j]
		}
		K[i][i] += g.noise / count[i]
	}
	return referenceSolveSPD(K, mean)
}

// checkGroupedGP trains g on (X, y) and holds its weights to the grouped
// reference bit for bit, and its predictions on X's rows, a row one feature
// short and one a feature long to the pre-in-place Predict bit for bit. With
// tol 0 they are the per-row reference's bits too; with tol > 0 they agree
// with it within tol of the larger of the two and the targets' standard
// deviation (a prediction near 0 is a difference of terms of that size, so a
// tolerance of its own magnitude would hold the rounding to nothing); with
// tol < 0 the per-row reference is not consulted.
func checkGroupedGP(t *testing.T, name string, g *GaussianProcess, X [][]float64, y []float64, tol float64) {
	t.Helper()
	err := g.Train(X, y)
	alpha, wantErr := referenceGroupedGPAlpha(g, X, y)
	if (err != nil) != (wantErr != nil) || !slices.EqualFunc(g.alpha, alpha, sameBits) {
		t.Fatalf("%s: weights %v (%v), grouped reference %v (%v)", name, g.alpha, err, alpha, wantErr)
	}
	if err != nil {
		return
	}
	near := sameBits
	if tol > 0 {
		near = func(a, b float64) bool {
			if math.IsNaN(a) || math.IsNaN(b) {
				return math.IsNaN(a) && math.IsNaN(b)
			}
			return math.Abs(a-b) <= tol*max(math.Abs(a), math.Abs(b), g.tgt.sd)
		}
	}
	var ref *GaussianProcess
	if tol >= 0 {
		if ref, err = referenceGPTrain(g, X, y); err != nil {
			t.Fatalf("%s: the per-row reference failed to train: %v", name, err)
		}
	}
	dims := len(X[0])
	for _, x := range append(slices.Clone(X), X[0][:dims-1], append(slices.Clone(X[0]), 3)) {
		got := g.Predict(x)
		if want := referenceGPPredict(g, x); !sameBits(got, want) {
			t.Fatalf("%s: Predict(%v) = %v, through std.apply %v", name, x, got, want)
		}
		if ref == nil {
			continue
		}
		if want := referenceGPPredict(ref, x); !near(got, want) {
			t.Fatalf("%s: Predict(%v) = %v, per-row reference %v", name, x, got, want)
		}
	}
}

// FuzzGPDistinctRows holds the replicate summary to both references on data
// nobody wrote down: pool 0 is all-distinct rows, which must predict the
// per-row bits exactly; otherwise rows repeat from a pool of 1 to 12 and the
// predictions agree within 1e-9 of the targets' scale.
func FuzzGPDistinctRows(f *testing.F) {
	for _, in := range [][5]uint8{{0, 0, 3, 0, 0}, {200, 1, 2, 128, 1}, {255, 12, 7, 255, 0}, {40, 3, 0, 7, 1}} {
		f.Add(in[0], in[1], in[2], in[3], in[4], int64(in[0]))
	}
	f.Fuzz(func(t *testing.T, rows, pool, dims, scale, noise uint8, seed int64) {
		n, p, d := 1+int(rows)%300, int(pool)%13, 1+int(dims)%8
		g := NewGaussianProcess(0.5+float64(scale)/255, []float64{1e-4, 0.1}[noise%2])
		if p == 0 {
			X, y := synth(n, d, seed, nonlinearFn2, 0.3)
			checkGroupedGP(t, "distinct", g, X, y, 0)
			return
		}
		X, y := repeatedRows(n, p, d, seed)
		checkGroupedGP(t, "repeats", g, X, y, 1e-9)
	})
}

// The flat accumulation and solve are the bits of the nested-slice normal
// equations: every weight of a least-squares fit over random shapes, through
// the jitter escalation where the first factorisation fails.
func TestNormalEquationsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n, d := 1+rng.Intn(60), 1+rng.Intn(9)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			for j := range X[i] {
				X[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)))
			}
			y[i] = rng.NormFloat64()
		}
		want, err := referenceSolveNormal(X, y, 1e-3)
		var s lsq
		s.reset(d)
		for r, row := range X {
			s.add(row, y[r])
		}
		got := make([]float64, d)
		if ok := s.solve(1e-3, got); ok != (err == nil) || ok && !slices.EqualFunc(got, want, sameBits) {
			t.Fatalf("trial %d (%dx%d): %v; reference %v, %v", trial, n, d, got, want, err)
		}
	}
}

// referenceSolveSPD is the nested-slice Cholesky solve the flat lsq replaced:
// A with its ridge already on the diagonal, then an escalating jitter.
func referenceSolveSPD(A [][]float64, b []float64) ([]float64, error) {
	n := len(A)
	jitter := 0.0
	for attempt := 0; attempt < 6; attempt++ {
		if L, ok := referenceCholesky(A, jitter); ok {
			return referenceCholeskySolve(L, b), nil
		}
		if jitter == 0 {
			tr := 0.0
			for i := range A {
				tr += math.Abs(A[i][i])
			}
			jitter = 1e-10 * (tr / float64(n))
			if jitter == 0 {
				jitter = 1e-10
			}
		} else {
			jitter *= 100
		}
	}
	return nil, fmt.Errorf("model: matrix not positive definite")
}

func referenceCholesky(A [][]float64, jitter float64) ([][]float64, bool) {
	n := len(A)
	L := make([][]float64, n)
	for i := range L {
		L[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := A[i][j]
			if i == j {
				sum += jitter
			}
			for k := 0; k < j; k++ {
				sum -= L[i][k] * L[j][k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, false
				}
				L[i][i] = math.Sqrt(sum)
			} else {
				L[i][j] = sum / L[j][j]
			}
		}
	}
	return L, true
}

func referenceCholeskySolve(L [][]float64, b []float64) []float64 {
	n := len(L)
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= L[i][k] * z[k]
		}
		z[i] = sum / L[i][i]
	}
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

// referenceSolveNormal is the nested-slice normalEquations: (XᵀX + ridge·I) w
// = Xᵀy through referenceSolveSPD.
func referenceSolveNormal(X [][]float64, y []float64, ridge float64) ([]float64, error) {
	d := len(X[0])
	A := make([][]float64, d)
	for i := range A {
		A[i] = make([]float64, d)
	}
	b := make([]float64, d)
	for r, row := range X {
		for i := 0; i < d; i++ {
			b[i] += row[i] * y[r]
			for j := 0; j <= i; j++ {
				A[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := 0; j < i; j++ {
			A[j][i] = A[i][j]
		}
		A[i][i] += ridge
	}
	return referenceSolveSPD(A, b)
}

// referenceStandardizer is fitStandardizer as it was: column by column, a
// fresh standardizer.
func referenceStandardizer(X [][]float64) standardizer {
	d := len(X[0])
	s := standardizer{mean: make([]float64, d), scale: make([]float64, d)}
	for j := 0; j < d; j++ {
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
		}
	}
	return s
}

// referenceLinearTrain is Linear.Train as it was before the flat solver:
// standardize into fresh rows, append an intercept column, solve the nested
// normal equations, and again under the 1e-4 ridge if that fails. It returns
// the trained model, or nil and the error.
func referenceLinearTrain(X [][]float64, y []float64, ridge float64) (*Linear, error) {
	std := referenceStandardizer(X)
	aug := make([][]float64, len(X))
	for i, x := range X {
		aug[i] = append(std.apply(x), 1)
	}
	w, err := referenceSolveNormal(aug, y, ridge)
	if err != nil {
		if w, err = referenceSolveNormal(aug, y, 1e-4); err != nil {
			return nil, err
		}
	}
	return &Linear{weights: w, std: std, ridge: ridge}, nil
}

// referenceLMSTrain is LeastMedianSquares.Train as it was before its subsample
// fits shared scratch: a fresh math/rand source, one *Linear per draw, the
// median by one Predict per row and a sort. It returns the model kept.
func referenceLMSTrain(seed int64, X [][]float64, y []float64) (*Linear, error) {
	n, subset := len(X), len(X[0])+2
	if subset >= n {
		return referenceLinearTrain(X, y, 1e-9)
	}
	rng := rand.New(rand.NewSource(seed))
	var best *Linear
	bestMed := 0.0
	for s := 0; s < 40; s++ {
		perm := rng.Perm(n)
		sx, sy := make([][]float64, subset), make([]float64, subset)
		for i, j := range perm[:subset] {
			sx[i], sy[i] = X[j], y[j]
		}
		cand, err := referenceLinearTrain(sx, sy, 1e-9)
		if err != nil {
			continue
		}
		if med := referenceMedianSquaredResidual(cand, X, y); best == nil || med < bestMed {
			best, bestMed = cand, med
		}
	}
	if best == nil {
		return referenceLinearTrain(X, y, 1e-9)
	}
	return best, nil
}

// sameLinear reports the first difference between two linear fits: error or
// not, then the bits of every weight, mean and scale.
func sameLinear(got *Linear, gotErr error, want *Linear, wantErr error) error {
	if (gotErr != nil) != (wantErr != nil) {
		return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return nil
	}
	for _, p := range [][2][]float64{{got.weights, want.weights}, {got.std.mean, want.std.mean}, {got.std.scale, want.std.scale}} {
		if !slices.EqualFunc(p[0], p[1], sameBits) {
			return fmt.Errorf("weights %v, mean %v, scale %v; reference %v, %v, %v", got.weights, got.std.mean, got.std.scale, want.weights, want.std.mean, want.std.scale)
		}
	}
	return nil
}

// oracleData draws an n×dims design whose columns are, at random, reals over
// nine magnitudes, constants, scaled copies of the column before (collinear)
// or a few small integers (heavy ties); its targets are noisy, tied or now
// and then NaN.
func oracleData(rng *rand.Rand, n, dims int) ([][]float64, []float64) {
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, dims)
	}
	for j := 0; j < dims; j++ {
		kind, scale, c := rng.Intn(5), math.Pow(10, float64(rng.Intn(9)-2)), rng.NormFloat64()
		for i, x := range X {
			switch {
			case kind == 1:
				x[j] = c * scale
			case kind == 2 && j > 0:
				x[j] = X[i][j-1] * c
			case kind == 3:
				x[j] = float64(rng.Intn(3))
			default:
				x[j] = rng.NormFloat64() * scale
			}
		}
	}
	y := make([]float64, n)
	ties := rng.Intn(3) == 0
	for i, x := range X {
		y[i] = 2*x[0] - x[dims-1] + rng.NormFloat64()
		if ties {
			y[i] = float64(rng.Intn(4))
		}
	}
	if rng.Intn(8) == 0 {
		y[rng.Intn(n)] = math.NaN()
	}
	return X, y
}

// oracleProbes is X's rows, a row one feature short, one a feature long and a
// few fresh ones.
func oracleProbes(rng *rand.Rand, X [][]float64) [][]float64 {
	dims := len(X[0])
	probes := append(slices.Clone(X), X[0][:dims-1], append(slices.Clone(X[0]), 3))
	for range 5 {
		x := make([]float64, dims)
		for j := range x {
			x[j] = X[rng.Intn(len(X))][j] + rng.NormFloat64()
		}
		probes = append(probes, x)
	}
	return probes
}

// The flat solver trains the bits the nested one did: Linear (also at ridge
// 0, which needs the jitter on a constant column), LeastMedSq (also where
// n <= dims+2 falls back to plain OLS), the RBF output layer and the GP
// weights — the GP's over its replicate summary, which on all-distinct rows
// predicts the bits of the per-row solve —, over random shapes with
// constant, collinear and tied columns and NaN targets, predictions included
// on probes shorter and longer than the trained width. The ridge escalation Linear falls back on is held to the
// nested solver on matrices that need it.
func TestLeastSquaresMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		dims := 1 + rng.Intn(8)
		n := 1 + rng.Intn(60)
		if trial%4 == 0 {
			n = 1 + rng.Intn(dims+2) // the plain-OLS fallback
		}
		X, y := oracleData(rng, n, dims)
		name := fmt.Sprintf("trial %d (%dx%d)", trial, n, dims)
		probes := oracleProbes(rng, X)

		for _, ridge := range []float64{1e-9, 0} {
			lin := &Linear{ridge: ridge}
			err := lin.Train(X, y)
			want, wantErr := referenceLinearTrain(X, y, ridge)
			if e := sameLinear(lin, err, want, wantErr); e != nil {
				t.Fatalf("%s, Linear at ridge %v: %v", name, ridge, e)
			}
			checkPredictions(t, name+", Linear", lin, want, wantErr, probes)
		}

		seed := rng.Int63n(100)
		lms := NewLeastMedianSquares(seed)
		err := lms.Train(X, y)
		want, wantErr := referenceLMSTrain(seed, X, y)
		if e := sameLinear(lms.inner, err, want, wantErr); e != nil {
			t.Fatalf("%s, LeastMedSq: %v", name, e)
		}
		checkPredictions(t, name+", LeastMedSq", lms, want, wantErr, probes)

		rbf := NewRBFNetwork(1+rng.Intn(8), seed)
		if err := rbf.Train(X, y); err == nil {
			design := make([][]float64, n)
			for i, x := range X {
				design[i] = rbf.activations(rbf.std.apply(x))
			}
			if w, _ := referenceSolveNormal(design, y, 1e-6); !slices.EqualFunc(rbf.weights, w, sameBits) {
				t.Fatalf("%s: RBF weights %v, reference %v", name, rbf.weights, w)
			}
		}

		gp := NewGaussianProcess(0.5+rng.Float64(), []float64{1e-4, 0.1}[rng.Intn(2)])
		tol := -1.0
		if rows, _ := referenceDistinctRows(X); len(rows) == n {
			tol = 0
		}
		checkGroupedGP(t, name+", GP", gp, X, y, tol)
	}

	// On replicated rows the summary's predictions are the per-row solve's
	// within rounding: 1e-9 of the targets' scale.
	for trial := 0; trial < 40; trial++ {
		n, pool, dims := 1+rng.Intn(300), 1+rng.Intn(12), 1+rng.Intn(8)
		X, y := repeatedRows(n, pool, dims, int64(trial))
		gp := NewGaussianProcess(0.5+rng.Float64(), []float64{1e-4, 0.1}[rng.Intn(2)])
		checkGroupedGP(t, fmt.Sprintf("GP trial %d (%d rows from %d, %d dims)", trial, n, pool, dims), gp, X, y, 1e-9)
	}

	// Matrices that need no jitter, some jitter, the 1e-4 ridge or fail even
	// so: the Gram matrix of a small design, less a random multiple of the
	// identity. Drawn from seed 1, the 4,000 trials split 2,402 / 87 / 1,277 /
	// 234.
	rng = rand.New(rand.NewSource(1))
	for trial := 0; trial < 4000; trial++ {
		d := 1 + rng.Intn(7)
		X, _ := synth(d+rng.Intn(4), d, int64(trial), nonlinearFn2, 0)
		var s lsq
		s.reset(d)
		for _, x := range X {
			for j := range x {
				x[j] *= 1e-4
			}
			s.add(x, 0)
		}
		shift := 2 * rng.Float64() * math.Pow(10, -float64(4+rng.Intn(9)))
		A := make([][]float64, d)
		for i := range A {
			A[i] = make([]float64, d)
			s.a[i*d+i] -= shift
			s.b[i] = rng.NormFloat64()
		}
		for i := range A {
			for j := 0; j <= i; j++ {
				A[i][j], A[j][i] = s.a[i*d+j], s.a[i*d+j]
			}
		}
		got := make([]float64, d)
		ok := s.solve(1e-9, got) || s.solve(1e-4, got)
		want, err := referenceSolveNormalMatrix(A, s.b)
		if ok != (err == nil) || ok && !slices.EqualFunc(got, want, sameBits) {
			t.Fatalf("matrix trial %d (shift %v): %v (%v), reference %v (%v)", trial, shift, got, ok, want, err)
		}
	}
}

// referenceSolveNormalMatrix is the reference Linear's two solves, given the
// normal matrix itself: under the 1e-9 ridge, then under 1e-4.
func referenceSolveNormalMatrix(A [][]float64, b []float64) ([]float64, error) {
	solve := func(ridge float64) ([]float64, error) {
		R := make([][]float64, len(A))
		for i := range A {
			R[i] = slices.Clone(A[i])
			R[i][i] += ridge
		}
		return referenceSolveSPD(R, b)
	}
	if w, err := solve(1e-9); err == nil {
		return w, nil
	}
	return solve(1e-4)
}

// checkPredictions holds m's predictions to the reference's, bit for bit; a
// reference that failed to train predicts 0.
func checkPredictions(t *testing.T, name string, m Model, want Model, wantErr error, probes [][]float64) {
	t.Helper()
	for _, x := range probes {
		w := 0.0
		if wantErr == nil {
			w = want.Predict(x)
		}
		if got := m.Predict(x); !sameBits(got, w) {
			t.Fatalf("%s: Predict(%v) = %v, reference %v", name, x, got, w)
		}
	}
}

// refNode is a node of the pointer-linked trees the reference grows.
type refNode struct {
	feature     int
	threshold   float64
	left, right *refNode
	value       float64
	leaf        bool
}

// referenceTreeTrain is Tree.Train as it was before the flat scratch: fresh
// slices per node and feature, sort.Slice, appended partitions.
func referenceTreeTrain(maxDepth, minLeaf int, features []int, X [][]float64, y []float64) *refNode {
	if features == nil {
		features = make([]int, len(X[0]))
		for i := range features {
			features[i] = i
		}
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	return referenceTreeBuild(maxDepth, minLeaf, X, y, idx, features, 0)
}

func referenceTreeBuild(maxDepth, minLeaf int, X [][]float64, y []float64, idx, features []int, depth int) *refNode {
	ys := make([]float64, len(idx))
	for i, j := range idx {
		ys[i] = y[j]
	}
	node := &refNode{value: mean(ys), leaf: true}
	if depth >= maxDepth || len(idx) < 2*minLeaf || variance(ys) == 0 {
		return node
	}
	bestVar := math.Inf(1)
	bestFeature, bestSplit := -1, 0.0
	for _, f := range features {
		vals := make([]float64, len(idx))
		for i, j := range idx {
			vals[i] = X[j][f]
		}
		order := make([]int, len(idx))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
		var lsum, lsq, rsum, rsq float64
		for _, o := range order {
			rsum += ys[o]
			rsq += ys[o] * ys[o]
		}
		nl, nr := 0.0, float64(len(idx))
		for p := 0; p < len(order)-1; p++ {
			v := ys[order[p]]
			lsum += v
			lsq += v * v
			rsum -= v
			rsq -= v * v
			nl++
			nr--
			if vals[order[p]] == vals[order[p+1]] || int(nl) < minLeaf || int(nr) < minLeaf {
				continue
			}
			if total := (lsq - lsum*lsum/nl) + (rsq - rsum*rsum/nr); total < bestVar {
				bestVar, bestFeature = total, f
				bestSplit = (vals[order[p]] + vals[order[p+1]]) / 2
			}
		}
	}
	if bestFeature < 0 {
		return node
	}
	var li, ri []int
	for _, j := range idx {
		if X[j][bestFeature] <= bestSplit {
			li = append(li, j)
		} else {
			ri = append(ri, j)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return node
	}
	node.leaf, node.feature, node.threshold = false, bestFeature, bestSplit
	node.left = referenceTreeBuild(maxDepth, minLeaf, X, y, li, features, depth+1)
	node.right = referenceTreeBuild(maxDepth, minLeaf, X, y, ri, features, depth+1)
	return node
}

func referenceTreePredict(n *refNode, x []float64) float64 {
	for !n.leaf {
		if n.feature < len(x) && x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// referenceBaggingTrain is Bagging.Train as it was: fresh bootstrap buffers
// per tree, a math/rand source.
func referenceBaggingTrain(n int, seed int64, X [][]float64, y []float64) []*refNode {
	rng := rand.New(rand.NewSource(seed))
	var trees []*refNode
	for i := 0; i < n; i++ {
		bx, by := make([][]float64, len(X)), make([]float64, len(y))
		for j := range bx {
			k := rng.Intn(len(X))
			bx[j], by[j] = X[k], y[k]
		}
		trees = append(trees, referenceTreeTrain(8, 2, nil, bx, by))
	}
	return trees
}

// referenceRandomSubspaceTrain is RandomSubspace.Train as it was.
func referenceRandomSubspaceTrain(n int, frac float64, seed int64, X [][]float64, y []float64) []*refNode {
	dims := len(X[0])
	take := max(int(math.Ceil(frac*float64(dims))), 1)
	rng := rand.New(rand.NewSource(seed))
	var trees []*refNode
	for i := 0; i < n; i++ {
		trees = append(trees, referenceTreeTrain(8, 2, rng.Perm(dims)[:take], X, y))
	}
	return trees
}

// referenceDiscretizedTrain is Discretized.Train as it was, sort.Slice
// included. It returns the classifying tree and the bin centres.
func referenceDiscretizedTrain(bins int, X [][]float64, y []float64) (*refNode, []float64) {
	order := make([]int, len(y))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return y[order[a]] < y[order[b]] })
	bins = min(bins, len(y))
	labels := make([]float64, len(y))
	sums, counts := make([]float64, bins), make([]float64, bins)
	for rank, idx := range order {
		bin := rank * bins / len(y)
		labels[idx] = float64(bin)
		sums[bin] += y[idx]
		counts[bin]++
	}
	centers := make([]float64, bins)
	for b := range centers {
		if counts[b] > 0 {
			centers[b] = sums[b] / counts[b]
		}
	}
	return referenceTreeTrain(8, 1, nil, X, labels), centers
}

// sameTree reports the first difference between t's nodes from at and the
// reference subtree r: shape, split features, and the bits of thresholds and
// values.
func sameTree(t *Tree, at int, r *refNode) error {
	n := t.nodes[at]
	if (n.left == 0) != r.leaf || !sameBits(n.value, r.value) {
		return fmt.Errorf("node %d: leaf %v, value %v; reference %v, %v", at, n.left == 0, n.value, r.leaf, r.value)
	}
	if r.leaf {
		return nil
	}
	if int(n.feature) != r.feature || !sameBits(n.threshold, r.threshold) {
		return fmt.Errorf("node %d: x[%d] <= %v; reference x[%d] <= %v", at, n.feature, n.threshold, r.feature, r.threshold)
	}
	if err := sameTree(t, int(n.left), r.left); err != nil {
		return err
	}
	return sameTree(t, int(n.left)+1, r.right)
}

func countNodes(r *refNode) int {
	if r.leaf {
		return 1
	}
	return 1 + countNodes(r.left) + countNodes(r.right)
}

// sameForest holds trained trees to reference trees node by node, each at
// exact length.
func sameForest(trees []*Tree, refs []*refNode) error {
	if len(trees) != len(refs) {
		return fmt.Errorf("%d trees, reference %d", len(trees), len(refs))
	}
	for i, tr := range trees {
		if len(tr.nodes) != countNodes(refs[i]) {
			return fmt.Errorf("tree %d: %d nodes, reference %d", i, len(tr.nodes), countNodes(refs[i]))
		}
		if err := sameTree(tr, 0, refs[i]); err != nil {
			return fmt.Errorf("tree %d: %v", i, err)
		}
	}
	return nil
}

// forestPredict averages the reference trees as the ensembles' Predict does.
func forestPredict(refs []*refNode, x []float64) float64 {
	s := 0.0
	for _, r := range refs {
		s += referenceTreePredict(r, x)
	}
	return s / float64(len(refs))
}

// checkTreeModels trains Tree, Bagging, RandomSubSpace and Discretized on
// (X, y) and holds every tree and every prediction on the probes to the
// references, bit for bit.
func checkTreeModels(t *testing.T, name string, X [][]float64, y []float64, seed int64, probes [][]float64) {
	t.Helper()
	depth, leaf := 1+int(seed%10), 1+int(seed%3)
	tree := NewTree(depth, leaf)
	bag := NewBagging(1+int(seed%12), seed)
	sub := NewRandomSubspace(1+int(seed%12), []float64{0.3, 0.5, 1}[seed%3], seed)
	disc := NewDiscretized(2 + int(seed%9))
	for _, m := range []Model{tree, bag, sub, disc} {
		if err := m.Train(X, y); err != nil {
			t.Fatalf("%s, %s: %v", name, m.Name(), err)
		}
	}
	refTree := []*refNode{referenceTreeTrain(depth, leaf, nil, X, y)}
	refBag := referenceBaggingTrain(bag.n, seed, X, y)
	refSub := referenceRandomSubspaceTrain(sub.n, sub.frac, seed, X, y)
	refDisc, centers := referenceDiscretizedTrain(disc.bins, X, y)
	for _, c := range []struct {
		m     Model
		trees []*Tree
		refs  []*refNode
	}{{tree, []*Tree{tree}, refTree}, {bag, bag.trees, refBag}, {sub, sub.trees, refSub}, {disc, []*Tree{disc.tree}, []*refNode{refDisc}}} {
		if err := sameForest(c.trees, c.refs); err != nil {
			t.Fatalf("%s, %s: %v", name, c.m.Name(), err)
		}
	}
	if !slices.EqualFunc(disc.centers, centers, sameBits) {
		t.Fatalf("%s: bin centres %v, reference %v", name, disc.centers, centers)
	}
	for _, x := range probes {
		bin := min(max(int(math.Round(referenceTreePredict(refDisc, x))), 0), len(centers)-1)
		for _, c := range []struct {
			m    Model
			want float64
		}{{tree, forestPredict(refTree, x)}, {bag, forestPredict(refBag, x)}, {sub, forestPredict(refSub, x)}, {disc, centers[bin]}} {
			if got := c.m.Predict(x); !sameBits(got, c.want) {
				t.Fatalf("%s, %s: Predict(%v) = %v, reference %v", name, c.m.Name(), x, got, c.want)
			}
		}
	}
}

// Trees grown in flat scratch, sorted by sort.Sort and partitioned in place
// are the trees the pointer-linked code grew: every split, threshold and leaf
// of Tree, Bagging, RandomSubSpace and Discretized, and every prediction, over
// random shapes with constant, collinear and heavily tied columns and NaN
// targets, on probes shorter and longer than the trained width.
func TestTreeTrainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n, dims := 1+rng.Intn(120), 1+rng.Intn(8)
		X, y := oracleData(rng, n, dims)
		checkTreeModels(t, fmt.Sprintf("trial %d (%dx%d)", trial, n, dims), X, y, rng.Int63n(1000), oracleProbes(rng, X))
	}
}

// FuzzTreeTrain holds the tree family to its references on shapes nobody
// wrote down.
func FuzzTreeTrain(f *testing.F) {
	for _, in := range [][2]uint8{{0, 0}, {1, 3}, {26, 5}, {119, 7}, {255, 2}} {
		f.Add(in[0], in[1], int64(in[0])*7+int64(in[1]))
	}
	f.Fuzz(func(t *testing.T, rows, dims uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		X, y := oracleData(rng, 1+int(rows)%200, 1+int(dims)%8)
		checkTreeModels(t, "fuzz", X, y, int64(uint64(seed)%1000), oracleProbes(rng, X))
	})
}
