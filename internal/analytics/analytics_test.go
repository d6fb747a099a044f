package analytics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/asap-project/ires/internal/datagen"
)

func TestPageRankKnownGraph(t *testing.T) {
	// Classic 3-node cycle: uniform ranks.
	edges := []datagen.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}
	rank := PageRank(edges, 50, 0.85)
	for v, r := range rank {
		if math.Abs(r-1.0/3) > 1e-6 {
			t.Errorf("vertex %d rank %.6f, want 1/3", v, r)
		}
	}
}

func TestPageRankSink(t *testing.T) {
	// 0 -> 2, 1 -> 2: vertex 2 is the most influential.
	edges := []datagen.Edge{{Src: 0, Dst: 2}, {Src: 1, Dst: 2}}
	rank := PageRank(edges, 30, 0.85)
	if top := TopRanked(rank, 1); top[0] != 2 {
		t.Fatalf("top vertex = %d, want 2 (ranks %v)", top[0], rank)
	}
	// Ranks sum to ~1 (stochastic with dangling redistribution).
	sum := 0.0
	for _, r := range rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %.6f", sum)
	}
}

func TestPageRankEmptyAndDefaults(t *testing.T) {
	if PageRank(nil, 10, 0.85) != nil {
		t.Fatal("empty graph should yield nil")
	}
	edges := []datagen.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}
	a := PageRank(edges, 0, 0)   // defaults kick in
	b := PageRank(edges, 10, -1) // invalid damping -> default
	if len(a) != 2 || len(b) != 2 {
		t.Fatal("defaults broken")
	}
}

func TestTopRankedStable(t *testing.T) {
	rank := []float64{0.2, 0.5, 0.2, 0.1}
	top := TopRanked(rank, 3)
	if top[0] != 1 || top[1] != 0 || top[2] != 2 {
		t.Fatalf("TopRanked = %v", top)
	}
	if got := TopRanked(rank, 10); len(got) != 4 {
		t.Fatalf("k clamp failed: %v", got)
	}
}

func TestTFIDFKnownValues(t *testing.T) {
	corpus := []datagen.Document{
		{ID: 0, Tokens: []string{"cat", "dog", "cat"}},
		{ID: 1, Tokens: []string{"dog", "fish"}},
	}
	vecs := TFIDF(corpus)
	if len(vecs) != 2 {
		t.Fatal("wrong vector count")
	}
	// "cat" appears in 1 of 2 docs: idf = ln(3/2); tf in doc0 = 2/3.
	wantCat := (2.0 / 3.0) * math.Log(3.0/2.0)
	if got := vecs[0]["cat"]; math.Abs(got-wantCat) > 1e-9 {
		t.Errorf("tfidf(cat, doc0) = %v, want %v", got, wantCat)
	}
	// "dog" appears in both docs: idf = ln(3/3) = 0.
	if got := vecs[0]["dog"]; got != 0 {
		t.Errorf("tfidf(dog, doc0) = %v, want 0", got)
	}
	if _, ok := vecs[0]["fish"]; ok {
		t.Error("doc0 has weight for absent term")
	}
	if TFIDF(nil) != nil {
		t.Error("empty corpus should yield nil")
	}
}

// clusteredVectors draws n vectors in dims dimensions from k Gaussian
// clusters and returns each vector's true cluster: k-means input with known
// structure.
func clusteredVectors(n, dims, k int, seed int64) ([]datagen.Vector, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]datagen.Vector, k)
	for c := range centers {
		centers[c] = make(datagen.Vector, dims)
		for d := range centers[c] {
			centers[c][d] = rng.Float64() * 100
		}
	}
	vecs := make([]datagen.Vector, n)
	truth := make([]int, n)
	for i := range vecs {
		c := i % k
		truth[i] = c
		v := make(datagen.Vector, dims)
		for d := range v {
			v[d] = centers[c][d] + rng.NormFloat64()*2
		}
		vecs[i] = v
	}
	return vecs, truth
}

func TestKMeansRecoversClusters(t *testing.T) {
	vecs, truth := clusteredVectors(300, 4, 3, 7)
	res, err := KMeans(vecs, 3, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Clusters are well separated: assignment must agree with truth up to
	// label permutation. Check purity > 95%.
	agree := make(map[[2]int]int)
	for i := range vecs {
		agree[[2]int{truth[i], res.Assignments[i]}]++
	}
	correct := 0
	for c := 0; c < 3; c++ {
		best := 0
		for a := 0; a < 3; a++ {
			if agree[[2]int{c, a}] > best {
				best = agree[[2]int{c, a}]
			}
		}
		correct += best
	}
	if purity := float64(correct) / 300; purity < 0.95 {
		t.Fatalf("purity = %.3f", purity)
	}
	if res.Inertia <= 0 || res.Iterations < 1 {
		t.Fatal("result stats missing")
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(nil, 2, 10, 1); err == nil {
		t.Fatal("empty input accepted")
	}
	vecs, _ := clusteredVectors(10, 2, 2, 1)
	if _, err := KMeans(vecs, 0, 10, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := KMeans(vecs, 11, 10, 1); err == nil {
		t.Fatal("k>n accepted")
	}
	ragged := []datagen.Vector{{1, 2}, {1}}
	if _, err := KMeans(ragged, 1, 10, 1); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestVectorizeTFIDF(t *testing.T) {
	corpus := datagen.Corpus(50, 40, 3)
	dense := VectorizeTFIDF(TFIDF(corpus), 16)
	if len(dense) != 50 {
		t.Fatal("wrong count")
	}
	for _, v := range dense {
		if len(v) != 16 {
			t.Fatalf("dim = %d", len(v))
		}
	}
	// Requesting more dims than terms clamps.
	tiny := VectorizeTFIDF(TFIDF(corpus[:1]), 1_000_000)
	if len(tiny[0]) > 100_000 {
		t.Fatal("dims not clamped")
	}
}

func TestWordCountAndLineCount(t *testing.T) {
	corpus := []datagen.Document{
		{Tokens: []string{"a", "b", "a"}},
		{Tokens: []string{"b"}},
	}
	wc := WordCount(corpus)
	if wc["a"] != 2 || wc["b"] != 2 {
		t.Fatalf("WordCount = %v", wc)
	}
}

func TestDatagenShapes(t *testing.T) {
	edges := datagen.CallGraph(50_000, 9)
	if len(edges) != 50_000 {
		t.Fatal("edge count wrong")
	}
	for _, e := range edges {
		if e.Src == e.Dst {
			t.Fatal("self loop generated")
		}
	}

	corpus := datagen.Corpus(200, 60, 9)
	if len(corpus) != 200 || datagen.SizeOfCorpus(corpus) <= 0 {
		t.Fatal("corpus degenerate")
	}
}

// Property: PageRank is a probability distribution on arbitrary random
// graphs.
func TestQuickPageRankStochastic(t *testing.T) {
	f := func(seed int64) bool {
		edges := datagen.CallGraph(500+int(uint64(seed)%2000), seed)
		rank := PageRank(edges, 15, 0.85)
		sum := 0.0
		for _, r := range rank {
			if r < 0 {
				return false
			}
			sum += r
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: k-means inertia never increases when k grows (with fixed seed
// and converged runs, more clusters fit at least as well).
func TestQuickKMeansInertiaMonotone(t *testing.T) {
	vecs, _ := clusteredVectors(200, 3, 4, 11)
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		res, err := KMeans(vecs, k, 60, 5)
		if err != nil {
			t.Fatal(err)
		}
		// Lloyd's is a local optimiser; allow 10% slack for bad seeds.
		if res.Inertia > prev*1.10 {
			t.Fatalf("inertia grew at k=%d: %.1f -> %.1f", k, prev, res.Inertia)
		}
		if res.Inertia < prev {
			prev = res.Inertia
		}
	}
}
