// Package datagen produces the synthetic stand-ins for the paper's
// proprietary inputs: power-law call graphs for the WIND telecom CDR traces
// (graph analytics) and Zipf-vocabulary document corpora for the IMR web
// crawls (text analytics). Experiments depend only on input size scaling,
// which the generators parameterise.
package datagen

import "math/rand"

// Edge is one directed graph edge (a call from Src to Dst).
type Edge struct {
	Src, Dst int32
}

// CallGraph generates a directed graph with the given number of edges over
// ~edges/10 vertices using preferential-attachment-style endpoint sampling,
// yielding the heavy-tailed degree distribution of real call graphs.
func CallGraph(edges int, seed int64) []Edge {
	if edges <= 0 {
		return nil
	}
	vertices := edges / 10
	if vertices < 2 {
		vertices = 2
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(vertices-1))
	out := make([]Edge, edges)
	for i := range out {
		src := int32(zipf.Uint64())
		dst := int32(zipf.Uint64())
		if src == dst {
			dst = (dst + 1) % int32(vertices)
		}
		out[i] = Edge{Src: src, Dst: dst}
	}
	return out
}

// VertexCount returns the number of distinct vertices referenced by edges.
func VertexCount(edges []Edge) int {
	max := int32(-1)
	for _, e := range edges {
		if e.Src > max {
			max = e.Src
		}
		if e.Dst > max {
			max = e.Dst
		}
	}
	return int(max + 1)
}

// Document is one corpus entry.
type Document struct {
	ID     int
	Tokens []string
}

// Corpus generates docs documents whose tokens follow a Zipf distribution
// over a synthetic vocabulary, with per-document length jitter — the
// statistical shape tf-idf and wordcount care about.
func Corpus(docs, meanLen int, seed int64) []Document {
	if docs <= 0 {
		return nil
	}
	if meanLen <= 0 {
		meanLen = 100
	}
	rng := rand.New(rand.NewSource(seed))
	vocab := docs*meanLen/20 + 50
	zipf := rand.NewZipf(rng, 1.1, 2, uint64(vocab-1))
	out := make([]Document, docs)
	for i := range out {
		n := meanLen/2 + rng.Intn(meanLen+1)
		tokens := make([]string, n)
		for j := range tokens {
			tokens[j] = word(zipf.Uint64())
		}
		out[i] = Document{ID: i, Tokens: tokens}
	}
	return out
}

// word renders a vocabulary index as a deterministic pseudo-word.
func word(idx uint64) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	if idx == 0 {
		return "a"
	}
	var buf []byte
	for idx > 0 {
		buf = append(buf, letters[idx%26])
		idx /= 26
	}
	return string(buf)
}

// Vector is a dense numeric feature vector.
type Vector []float64

// SizeOfCorpus approximates the byte size of a corpus (what a SequenceFile
// of it would occupy).
func SizeOfCorpus(docs []Document) int64 {
	var total int64
	for _, d := range docs {
		for _, t := range d.Tokens {
			total += int64(len(t)) + 1
		}
		total += 16
	}
	return total
}
