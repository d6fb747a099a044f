package model

import (
	"math/rand"
	"sync"
)

// trainer is a family of this package. train does what Train does, with s as
// the memory it uses and does not keep and rg, when not nil, as X's rows
// grouped. It resets everything an earlier train left and reuses the
// receiver's buffers: a retrained model predicts what a fresh one trained on
// the same data does, bit for bit, and one whose train failed predicts 0.
type trainer interface {
	Model
	train(s *scratch, X [][]float64, y []float64, rg *rowGroups) error
}

// ownTrainer returns m as a trainer when its concrete type is a family of
// this package. A type that embeds one, and may override its Train, is not.
func ownTrainer(m Model) (trainer, bool) {
	switch m := m.(type) {
	case *Linear, *LeastMedianSquares, *KNN, *Tree, *Bagging, *RandomSubspace,
		*Discretized, *RBFNetwork, *MLP, *GaussianProcess:
		return m.(trainer), true
	}
	return nil, false
}

// scratch is the memory a Train uses and does not keep: a Train through the
// Model interface makes a fresh one, a pool worker reuses its kit's. A field
// holds what one family's train needs, or what several need one after the
// other, never at once.
type scratch struct {
	src stream
	rng *rand.Rand // draws from src, once made

	lsq   lsq
	tree  treeScratch
	grp   grouping // the rows of a Train given no rowGroups
	table []int32  // grouping's and residualPairs' hash table

	// A subsample's rows and targets: LeastMedSq's subset, Bagging's bootstrap.
	sub  [][]float64
	subY []float64
	ints []int // LeastMedSq's and k-means' draws, Discretized's order
	rank ranks // Discretized's sort of the targets

	// LeastMedSq: the subsample fit, its predictions per distinct row, the
	// (row, target) pairs of the median.
	cand Linear
	pred []float64
	med  residualPairs

	// Standardized rows (RBF, MLP), per-row and per-unit vectors.
	z      [][]float64
	zflat  []float64
	assign []int     // k-means' clusters
	counts []float64 // MLP's and GP's rows per distinct row, Discretized's per bin
	vec    []float64 // MLP's target sums, Discretized's labels
	sums   []float64 // Discretized's target sums per bin, k-means' centre
	act    []float64 // RBF's activations
}

// rand returns the generator of seed's stream, rewound to its start.
func (s *scratch) rand(seed int64) *rand.Rand {
	if s.rng == nil {
		s.src = stream{p: prefixOf(seed)}
		s.rng = rand.New(&s.src)
		return s.rng
	}
	s.rng.Seed(seed)
	return s.rng
}

// groups returns the grouping of X: rg's, made on first use, or when rg is
// nil one made in s.
func (s *scratch) groups(rg *rowGroups, X [][]float64) *grouping {
	if rg == nil {
		s.grp.of(X, &s.table)
		return &s.grp
	}
	rg.once.Do(func() { rg.of(rg.X, &s.table) })
	return &rg.grouping
}

// resize returns *buf at length n, reallocating it at exactly n when its
// capacity is short. The contents are not cleared.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// carve returns n rows of width dims cut from *flat, reusing *rows and *flat.
func carve(rows *[][]float64, flat *[]float64, n, dims int) [][]float64 {
	r, f := resize(rows, n), resize(flat, n*dims)
	for i := range r {
		r[i] = f[i*dims : (i+1)*dims : (i+1)*dims]
	}
	return r
}

// kit is one pool worker's memory: the scratch of every Train it runs and,
// for its cross-validation cells, one model per family of this package,
// configured as the cell's factory makes it and retrained in place. A cell's
// model is thrown away once it has predicted its held-out rows, so one per
// family serves them all.
type kit struct {
	scratch
	cells struct {
		lin  Linear
		lms  LeastMedianSquares
		knn  KNN
		tree Tree
		bag  Bagging
		rss  RandomSubspace
		disc Discretized
		rbf  RBFNetwork
		mlp  MLP
		gp   GaussianProcess
	}
}

// cellModel returns the kit's model of proto's family, configured as proto,
// or false when proto's concrete type is not a family of this package.
func (k *kit) cellModel(proto Model) (trainer, bool) {
	c := &k.cells
	switch p := proto.(type) {
	case *Linear:
		c.lin.ridge = p.ridge
		return &c.lin, true
	case *LeastMedianSquares:
		c.lms.seed, c.lms.samples = p.seed, p.samples
		return &c.lms, true
	case *KNN:
		c.knn.k = p.k
		return &c.knn, true
	case *Tree:
		c.tree.maxDepth, c.tree.minLeaf, c.tree.featureMask = p.maxDepth, p.minLeaf, p.featureMask
		return &c.tree, true
	case *Bagging:
		c.bag.n, c.bag.seed = p.n, p.seed
		return &c.bag, true
	case *RandomSubspace:
		c.rss.n, c.rss.frac, c.rss.seed = p.n, p.frac, p.seed
		return &c.rss, true
	case *Discretized:
		c.disc.bins = p.bins
		return &c.disc, true
	case *RBFNetwork:
		c.rbf.centers, c.rbf.seed = p.centers, p.seed
		return &c.rbf, true
	case *MLP:
		c.mlp.hidden, c.mlp.epochs, c.mlp.lr, c.mlp.seed = p.hidden, p.epochs, p.lr, p.seed
		return &c.mlp, true
	case *GaussianProcess:
		c.gp.lengthScale, c.gp.noise = p.lengthScale, p.noise
		return &c.gp, true
	}
	return nil, false
}

// idleBudget bounds the bytes the idle kits hold between fits: what a
// platform retains for reuse stays a few tens of KiB, however large the
// problems it has fitted. (A sync.Pool would hold any number of kits of any
// size until the second collection after their last use.)
const idleBudget = 32 << 10

// kits are the kits no worker holds, keeping at most idleBudget bytes.
var kits struct {
	sync.Mutex
	idle  []*kit
	bytes int
}

func takeKit() *kit {
	kits.Lock()
	defer kits.Unlock()
	n := len(kits.idle)
	if n == 0 {
		return new(kit)
	}
	k := kits.idle[n-1]
	kits.idle[n-1] = nil
	kits.idle = kits.idle[:n-1]
	kits.bytes -= k.bytes()
	return k
}

// returnKit keeps the kit for the next worker if it fits the budget, after
// dropping what its scratch aliases of the caller's rows and targets.
func returnKit(k *kit) {
	clear(k.grp.rows[:cap(k.grp.rows)])
	clear(k.sub[:cap(k.sub)])
	k.rank = ranks{}
	b := k.bytes()
	kits.Lock()
	defer kits.Unlock()
	if kits.bytes+b <= idleBudget {
		kits.idle = append(kits.idle, k)
		kits.bytes += b
	}
}

// bytes is what the kit's buffers hold, by capacity: a float, an int or a
// slice header counted as 8, 8 and 24 bytes, a tree node as 24, a residual
// pair as 32.
func (k *kit) bytes() int {
	s, c := &k.scratch, &k.cells
	words := cap(s.lsq.buf) + cap(s.tree.idx) + cap(s.tree.right) + cap(s.tree.order) + cap(s.tree.all) +
		cap(s.tree.ys) + cap(s.tree.vals) + cap(s.grp.group) + cap(s.table)/2 + cap(s.subY) + cap(s.ints) +
		cap(s.cand.std.mean) + cap(s.pred) + 4*cap(s.med.pairs) + cap(s.zflat) + cap(s.assign) +
		cap(s.counts) + cap(s.vec) + cap(s.sums) + cap(s.act) +
		3*(cap(s.tree.nodes)+cap(s.grp.rows)+cap(s.sub)+cap(s.z))
	if s.src.win != nil {
		words += rngLen
	}
	words += cap(c.lin.std.mean) + cap(c.knn.xflat) + 3*cap(c.knn.X) + cap(c.knn.y) +
		3*cap(c.tree.nodes) + cap(c.disc.centers) + cap(c.rbf.muFlat) + 3*cap(c.rbf.mu) + cap(c.rbf.wbuf) +
		cap(c.mlp.w1buf) + cap(c.mlp.w2) + cap(c.gp.zflat) + 3*cap(c.gp.Z) + cap(c.gp.abuf)
	for _, std := range []*standardizer{c.knn.std, c.rbf.std, c.mlp.std, c.gp.std} {
		if std != nil {
			words += cap(std.mean)
		}
	}
	if c.lms.inner != nil {
		words += cap(c.lms.inner.std.mean)
	}
	if c.disc.tree != nil {
		words += 3 * cap(c.disc.tree.nodes)
	}
	for _, trees := range [][]*Tree{c.bag.trees, c.rss.trees} {
		for _, tr := range trees[:cap(trees)] {
			if tr != nil {
				words += 3*cap(tr.nodes) + cap(tr.featureMask)
			}
		}
	}
	return 8 * words
}
