// Package analytics implements the actual analytics operators the paper's
// workflows run — PageRank, tf-idf, k-means, wordcount — as real
// algorithms over real (synthetic) data. Examples execute them at laptop
// scale inside the simulated engines, so the multi-engine plans produce
// genuine results, not placeholders.
package analytics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/asap-project/ires/internal/datagen"
)

// PageRank runs power iteration over the directed edge list and returns the
// rank vector (indexed by vertex). Dangling mass is redistributed
// uniformly; damping defaults to 0.85 when out of (0,1).
func PageRank(edges []datagen.Edge, iterations int, damping float64) []float64 {
	n := datagen.VertexCount(edges)
	if n == 0 {
		return nil
	}
	if damping <= 0 || damping >= 1 {
		damping = 0.85
	}
	if iterations < 1 {
		iterations = 10
	}
	outDeg := make([]int, n)
	for _, e := range edges {
		outDeg[e.Src]++
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		base := (1 - damping) / float64(n)
		dangling := 0.0
		for v := 0; v < n; v++ {
			if outDeg[v] == 0 {
				dangling += rank[v]
			}
			next[v] = base
		}
		share := damping * dangling / float64(n)
		for v := range next {
			next[v] += share
		}
		for _, e := range edges {
			next[e.Dst] += damping * rank[e.Src] / float64(outDeg[e.Src])
		}
		rank, next = next, rank
	}
	return rank
}

// TopRanked returns the k highest-ranked vertex ids in descending rank
// order — the "influence score" output of the graph analytics workflow.
func TopRanked(rank []float64, k int) []int {
	idx := make([]int, len(rank))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if rank[idx[a]] != rank[idx[b]] {
			return rank[idx[a]] > rank[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// SparseVector maps term -> weight.
type SparseVector map[string]float64

// TFIDF computes tf-idf vectors for a corpus: tf is term frequency within
// the document, idf is log(N / df) with add-one smoothing.
func TFIDF(corpus []datagen.Document) []SparseVector {
	n := len(corpus)
	if n == 0 {
		return nil
	}
	df := make(map[string]int)
	for _, d := range corpus {
		seen := make(map[string]bool, len(d.Tokens))
		for _, t := range d.Tokens {
			if !seen[t] {
				seen[t] = true
				df[t]++
			}
		}
	}
	out := make([]SparseVector, n)
	for i, d := range corpus {
		tf := make(map[string]int, len(d.Tokens))
		for _, t := range d.Tokens {
			tf[t]++
		}
		vec := make(SparseVector, len(tf))
		for t, f := range tf {
			idf := math.Log(float64(n+1) / float64(df[t]+1))
			vec[t] = float64(f) / float64(len(d.Tokens)) * idf
		}
		out[i] = vec
	}
	return out
}

// KMeansResult packages the clustering output.
type KMeansResult struct {
	Centroids   []datagen.Vector
	Assignments []int
	Iterations  int
	Inertia     float64 // sum of squared distances to assigned centroids
}

// KMeans clusters dense vectors with Lloyd's algorithm and k-means++
// seeding. It stops at convergence or maxIters.
func KMeans(points []datagen.Vector, k, maxIters int, seed int64) (*KMeansResult, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("analytics: kmeans on empty input")
	}
	if k <= 0 || k > len(points) {
		return nil, fmt.Errorf("analytics: kmeans k=%d with %d points", k, len(points))
	}
	if maxIters < 1 {
		maxIters = 20
	}
	dims := len(points[0])
	for i, p := range points {
		if len(p) != dims {
			return nil, fmt.Errorf("analytics: point %d has %d dims, want %d", i, len(p), dims)
		}
	}
	rng := rand.New(rand.NewSource(seed))

	// k-means++ seeding.
	centroids := make([]datagen.Vector, 0, k)
	centroids = append(centroids, append(datagen.Vector(nil), points[rng.Intn(len(points))]...))
	dist2 := make([]float64, len(points))
	for len(centroids) < k {
		total := 0.0
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sq(p, c); d < best {
					best = d
				}
			}
			dist2[i] = best
			total += best
		}
		target := rng.Float64() * total
		chosen := len(points) - 1
		acc := 0.0
		for i, d := range dist2 {
			acc += d
			if acc >= target {
				chosen = i
				break
			}
		}
		centroids = append(centroids, append(datagen.Vector(nil), points[chosen]...))
	}

	assign := make([]int, len(points))
	res := &KMeansResult{}
	for it := 1; it <= maxIters; it++ {
		res.Iterations = it
		changed := false
		for i, p := range points {
			best, bd := 0, math.Inf(1)
			for c := range centroids {
				if d := sq(p, centroids[c]); d < bd {
					best, bd = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		counts := make([]int, k)
		sums := make([]datagen.Vector, k)
		for c := range sums {
			sums[c] = make(datagen.Vector, dims)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := range p {
				sums[c][d] += p[d]
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue // keep empty centroid in place
			}
			for d := range sums[c] {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
		if !changed && it > 1 {
			break
		}
	}
	res.Centroids = centroids
	res.Assignments = assign
	for i, p := range points {
		res.Inertia += sq(p, centroids[assign[i]])
	}
	return res, nil
}

func sq(a, b datagen.Vector) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// VectorizeTFIDF embeds sparse tf-idf vectors into a dense space spanned by
// the top dims terms by document frequency — the bridge between the tf-idf
// and k-means stages of the text-clustering workflow.
func VectorizeTFIDF(vecs []SparseVector, dims int) []datagen.Vector {
	counts := make(map[string]int)
	for _, v := range vecs {
		for t := range v {
			counts[t]++
		}
	}
	terms := make([]string, 0, len(counts))
	for t := range counts {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		if counts[terms[i]] != counts[terms[j]] {
			return counts[terms[i]] > counts[terms[j]]
		}
		return terms[i] < terms[j]
	})
	if dims > len(terms) {
		dims = len(terms)
	}
	terms = terms[:dims]
	out := make([]datagen.Vector, len(vecs))
	for i, v := range vecs {
		dense := make(datagen.Vector, dims)
		for d, t := range terms {
			dense[d] = v[t]
		}
		out[i] = dense
	}
	return out
}

// WordCount counts distinct token frequencies over a corpus.
func WordCount(corpus []datagen.Document) map[string]int {
	out := make(map[string]int)
	for _, d := range corpus {
		for _, t := range d.Tokens {
			out[t]++
		}
	}
	return out
}
