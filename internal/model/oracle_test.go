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

// referenceMedianSquaredResidual is medianSquaredResidual as it was before it
// predicted once per distinct row: one Predict per row.
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
		for _, x := range probes {
			if got, want := lin.Predict(x), referenceLinearPredict(lin, x); !sameBits(got, want) {
				t.Fatalf("trial %d: Linear.Predict(%v) = %v, reference %v", trial, x, got, want)
			}
			if got, want := mlp.Predict(x), referenceMLPPredict(mlp, w1, mlp.w2, x); !sameBits(got, want) {
				t.Fatalf("trial %d: MLP.Predict(%v) = %v, reference %v", trial, x, got, want)
			}
		}
		rows, group := distinctRows(X)
		got := medianSquaredResidual(lin, rows, group, y, make([]float64, len(rows)), make([]float64, n))
		if want := referenceMedianSquaredResidual(lin, X, y); !sameBits(got, want) {
			t.Fatalf("trial %d: median squared residual %v, reference %v", trial, got, want)
		}
		if a := testing.AllocsPerRun(10, func() { lin.Predict(X[0]); mlp.Predict(X[0]) }); a != 0 {
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

// referenceNormalEquations is normalEquations as it was before its rows were
// hoisted: indexed nested slices all the way down, one allocation per row.
func referenceNormalEquations(X [][]float64, y []float64, ridge float64) ([]float64, bool) {
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
	L := make([][]float64, d)
	for i := range L {
		L[i] = make([]float64, d)
	}
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			sum := A[i][j]
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
	z := make([]float64, d)
	for i := 0; i < d; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= L[i][k] * z[k]
		}
		z[i] = sum / L[i][i]
	}
	x := make([]float64, d)
	for i := d - 1; i >= 0; i-- {
		sum := z[i]
		for k := i + 1; k < d; k++ {
			sum -= L[k][i] * x[k]
		}
		x[i] = sum / L[i][i]
	}
	return x, true
}

// Hoisted rows solve the same bits: every weight of a well-posed least-squares
// fit, over random shapes.
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
		want, ok := referenceNormalEquations(X, y, 1e-3)
		if !ok {
			continue // the jitter path retries; the first attempt is the one compared
		}
		got, err := normalEquations(X, y, 1e-3)
		if err != nil || !slices.EqualFunc(got, want, sameBits) {
			t.Fatalf("trial %d (%dx%d): %v, %v; reference %v", trial, n, d, got, err, want)
		}
	}
}
