package model

import (
	"math"
	"sort"
)

// Tree is a CART-style regression tree splitting on variance reduction.
type Tree struct {
	maxDepth int
	minLeaf  int
	root     *treeNode
	// featureMask, when non-nil, restricts splits to the masked features
	// (used by the random-subspace ensemble).
	featureMask []int
}

type treeNode struct {
	feature     int
	threshold   float64
	left, right *treeNode
	value       float64
	leaf        bool
}

// NewTree returns an untrained regression tree.
func NewTree(maxDepth, minLeaf int) *Tree {
	if maxDepth < 1 {
		maxDepth = 1
	}
	if minLeaf < 1 {
		minLeaf = 1
	}
	return &Tree{maxDepth: maxDepth, minLeaf: minLeaf}
}

// Name implements Model.
func (t *Tree) Name() string { return "RegressionTree" }

// Train implements Model.
func (t *Tree) Train(X [][]float64, y []float64) error {
	dims, err := validate(X, y)
	if err != nil {
		return err
	}
	features := t.featureMask
	if features == nil {
		features = make([]int, dims)
		for i := range features {
			features[i] = i
		}
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(X, y, idx, features, 0)
	return nil
}

func (t *Tree) build(X [][]float64, y []float64, idx, features []int, depth int) *treeNode {
	ys := make([]float64, len(idx))
	for i, j := range idx {
		ys[i] = y[j]
	}
	node := &treeNode{value: mean(ys), leaf: true}
	if depth >= t.maxDepth || len(idx) < 2*t.minLeaf || variance(ys) == 0 {
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

		// Incremental variance scan over sorted split positions.
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
			if vals[order[p]] == vals[order[p+1]] {
				continue // cannot split between equal values
			}
			if int(nl) < t.minLeaf || int(nr) < t.minLeaf {
				continue
			}
			lvar := lsq - lsum*lsum/nl
			rvar := rsq - rsum*rsum/nr
			total := lvar + rvar
			if total < bestVar {
				bestVar = total
				bestFeature = f
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
	node.leaf = false
	node.feature = bestFeature
	node.threshold = bestSplit
	node.left = t.build(X, y, li, features, depth+1)
	node.right = t.build(X, y, ri, features, depth+1)
	return node
}

// Predict implements Model.
func (t *Tree) Predict(x []float64) float64 {
	n := t.root
	if n == nil {
		return 0
	}
	for !n.leaf {
		if n.feature < len(x) && x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Bagging is Breiman's bootstrap-aggregated ensemble of regression trees.
type Bagging struct {
	n     int
	seed  int64
	trees []*Tree
}

// NewBagging returns an untrained bagging ensemble of n trees.
func NewBagging(n int, seed int64) *Bagging {
	if n < 1 {
		n = 1
	}
	return &Bagging{n: n, seed: seed}
}

// Name implements Model.
func (b *Bagging) Name() string { return "Bagging" }

// Train implements Model.
func (b *Bagging) Train(X [][]float64, y []float64) error {
	if _, err := validate(X, y); err != nil {
		return err
	}
	rng := newRand(b.seed)
	b.trees = b.trees[:0]
	for i := 0; i < b.n; i++ {
		bx := make([][]float64, len(X))
		by := make([]float64, len(y))
		for j := range bx {
			k := rng.Intn(len(X))
			bx[j], by[j] = X[k], y[k]
		}
		tr := NewTree(8, 2)
		if err := tr.Train(bx, by); err != nil {
			return err
		}
		b.trees = append(b.trees, tr)
	}
	return nil
}

// Predict implements Model.
func (b *Bagging) Predict(x []float64) float64 {
	if len(b.trees) == 0 {
		return 0
	}
	s := 0.0
	for _, tr := range b.trees {
		s += tr.Predict(x)
	}
	return s / float64(len(b.trees))
}

// RandomSubspace is Ho's random-subspace ensemble: each tree sees a random
// subset of the features.
type RandomSubspace struct {
	n     int
	frac  float64
	seed  int64
	trees []*Tree
}

// NewRandomSubspace returns an untrained random-subspace ensemble of n
// trees, each trained on ceil(frac*dims) features.
func NewRandomSubspace(n int, frac float64, seed int64) *RandomSubspace {
	if n < 1 {
		n = 1
	}
	if frac <= 0 || frac > 1 {
		frac = 0.5
	}
	return &RandomSubspace{n: n, frac: frac, seed: seed}
}

// Name implements Model.
func (r *RandomSubspace) Name() string { return "RandomSubSpace" }

// Train implements Model.
func (r *RandomSubspace) Train(X [][]float64, y []float64) error {
	dims, err := validate(X, y)
	if err != nil {
		return err
	}
	take := int(math.Ceil(r.frac * float64(dims)))
	if take < 1 {
		take = 1
	}
	rng := newRand(r.seed)
	r.trees = r.trees[:0]
	for i := 0; i < r.n; i++ {
		mask := rng.Perm(dims)[:take]
		tr := NewTree(8, 2)
		tr.featureMask = mask
		if err := tr.Train(X, y); err != nil {
			return err
		}
		r.trees = append(r.trees, tr)
	}
	return nil
}

// Predict implements Model.
func (r *RandomSubspace) Predict(x []float64) float64 {
	if len(r.trees) == 0 {
		return 0
	}
	s := 0.0
	for _, tr := range r.trees {
		s += tr.Predict(x)
	}
	return s / float64(len(r.trees))
}

// Discretized implements WEKA's "regression by discretization": the target
// is binned into equal-frequency classes, a tree classifies the bin, and
// the prediction is the mean target of the predicted bin.
type Discretized struct {
	bins    int
	tree    *Tree
	centers []float64
}

// NewDiscretized returns an untrained regression-by-discretization model
// with the given number of target bins.
func NewDiscretized(bins int) *Discretized {
	if bins < 2 {
		bins = 2
	}
	return &Discretized{bins: bins}
}

// Name implements Model.
func (d *Discretized) Name() string { return "RegressionByDiscretization" }

// Train implements Model.
func (d *Discretized) Train(X [][]float64, y []float64) error {
	if _, err := validate(X, y); err != nil {
		return err
	}
	// Equal-frequency binning of the target.
	order := make([]int, len(y))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return y[order[a]] < y[order[b]] })
	bins := d.bins
	if bins > len(y) {
		bins = len(y)
	}
	labels := make([]float64, len(y))
	sums := make([]float64, bins)
	counts := make([]float64, bins)
	for rank, idx := range order {
		bin := rank * bins / len(y)
		labels[idx] = float64(bin)
		sums[bin] += y[idx]
		counts[bin]++
	}
	d.centers = make([]float64, bins)
	for b := 0; b < bins; b++ {
		if counts[b] > 0 {
			d.centers[b] = sums[b] / counts[b]
		}
	}
	// A regression tree over bin indices acts as the classifier.
	d.tree = NewTree(8, 1)
	return d.tree.Train(X, labels)
}

// Predict implements Model.
func (d *Discretized) Predict(x []float64) float64 {
	if d.tree == nil || len(d.centers) == 0 {
		return 0
	}
	bin := int(math.Round(d.tree.Predict(x)))
	if bin < 0 {
		bin = 0
	}
	if bin >= len(d.centers) {
		bin = len(d.centers) - 1
	}
	return d.centers[bin]
}
