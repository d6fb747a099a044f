package model

import (
	"math"
	"sort"
)

// Tree is a CART-style regression tree splitting on variance reduction.
type Tree struct {
	maxDepth int
	minLeaf  int
	// nodes is the tree, root first, at exact length; a split's children
	// are adjacent.
	nodes []treeNode
	// featureMask, when non-nil, restricts splits to the masked features
	// (used by the random-subspace ensemble).
	featureMask []int
}

// treeNode is a leaf when left is 0; otherwise its children are
// nodes[left] (feature <= threshold) and nodes[left+1].
type treeNode struct {
	threshold, value float64
	feature, left    int32
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
	if _, err := validate(X, y); err != nil {
		return err
	}
	t.train(new(treeScratch), X, y)
	return nil
}

// treeScratch is what growing a tree uses and does not keep, sized for the
// largest tree it has grown; an ensemble's trees share one.
type treeScratch struct {
	idx, right, order, all []int
	ys, vals               []float64
	rank                   ranks
	nodes                  []treeNode
}

// train grows t on the validated (X, y) in s.
func (t *Tree) train(s *treeScratch, X [][]float64, y []float64) {
	n, dims := len(X), len(X[0])
	if len(s.ys) < n {
		ints, floats := make([]int, 3*n), make([]float64, 2*n)
		s.idx, s.right, s.order = ints[:n:n], ints[n:2*n:2*n], ints[2*n:]
		s.ys, s.vals = floats[:n:n], floats[n:]
	}
	s.idx = s.idx[:n]
	for i := range s.idx {
		s.idx[i] = i
	}
	features := t.featureMask
	if features == nil {
		for len(s.all) < dims {
			s.all = append(s.all, len(s.all))
		}
		features = s.all[:dims]
	}
	s.nodes = append(s.nodes[:0], treeNode{})
	t.grow(s, X, y, features, 0, 0, n, 0)
	t.nodes = append(make([]treeNode, 0, len(s.nodes)), s.nodes...)
}

// grow makes s.nodes[at] the root of the subtree over the rows s.idx[lo:hi],
// which it partitions in place, stably, between the node's children.
func (t *Tree) grow(s *treeScratch, X [][]float64, y []float64, features []int, at, lo, hi, depth int) {
	idx := s.idx[lo:hi]
	ys := s.ys[:len(idx)]
	for i, j := range idx {
		ys[i] = y[j]
	}
	s.nodes[at].value = mean(ys)
	if depth >= t.maxDepth || len(idx) < 2*t.minLeaf || variance(ys) == 0 {
		return
	}

	bestVar := math.Inf(1)
	bestFeature, bestSplit := -1, 0.0
	s.rank = ranks{s.order[:len(idx)], s.vals[:len(idx)]}
	order, vals := s.rank.order, s.rank.key
	for _, f := range features {
		for i, j := range idx {
			vals[i] = X[j][f]
			order[i] = i
		}
		sort.Sort(&s.rank)

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
		return
	}

	nl, right := 0, s.right[:0]
	for _, j := range idx {
		if X[j][bestFeature] <= bestSplit {
			idx[nl] = j
			nl++
		} else {
			right = append(right, j)
		}
	}
	copy(idx[nl:], right)
	if nl == 0 || nl == len(idx) {
		return
	}
	left := len(s.nodes)
	s.nodes = append(s.nodes, treeNode{}, treeNode{})
	node := &s.nodes[at]
	node.threshold, node.feature, node.left = bestSplit, int32(bestFeature), int32(left)
	t.grow(s, X, y, features, left, lo, lo+nl, depth+1)
	t.grow(s, X, y, features, left+1, lo+nl, hi, depth+1)
}

// ranks sorts order by key[order[i]], ascending: sort.Sort over it makes the
// comparisons and swaps sort.Slice makes with the equivalent less function,
// so ties end in the same order.
type ranks struct {
	order []int
	key   []float64
}

func (r *ranks) Len() int           { return len(r.order) }
func (r *ranks) Less(a, b int) bool { return r.key[r.order[a]] < r.key[r.order[b]] }
func (r *ranks) Swap(a, b int)      { r.order[a], r.order[b] = r.order[b], r.order[a] }

// Predict implements Model.
func (t *Tree) Predict(x []float64) float64 {
	if len(t.nodes) == 0 {
		return 0
	}
	n := &t.nodes[0]
	for n.left != 0 {
		next := n.left + 1
		if int(n.feature) < len(x) && x[n.feature] <= n.threshold {
			next = n.left
		}
		n = &t.nodes[next]
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
	s := new(treeScratch)
	bx := make([][]float64, len(X))
	by := make([]float64, len(y))
	for i := 0; i < b.n; i++ {
		for j := range bx {
			k := rng.Intn(len(X))
			bx[j], by[j] = X[k], y[k]
		}
		tr := NewTree(8, 2)
		tr.train(s, bx, by)
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
	s := new(treeScratch)
	for i := 0; i < r.n; i++ {
		tr := NewTree(8, 2)
		tr.featureMask = rng.Perm(dims)[:take]
		tr.train(s, X, y)
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
	sort.Sort(&ranks{order, y})
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
