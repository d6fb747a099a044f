package model

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// draws runs one fixed mix of every method the zoo calls, several times past
// the prefix, and records what came out.
func draws(rng *rand.Rand) []uint64 {
	var out []uint64
	for round := 0; round < 6; round++ {
		for i := 0; i < 97; i++ {
			out = append(out, uint64(rng.Int63()), rng.Uint64())
		}
		for _, n := range []int{1, 2, 3, 7, 64, 300, 1 << 20, 1<<31 - 1, 1 << 40} {
			out = append(out, uint64(rng.Intn(n)))
		}
		for _, n := range []int{0, 1, 5, 47, 300} {
			for _, v := range rng.Perm(n) {
				out = append(out, uint64(v))
			}
			m := make([]int, n)
			permInto(rng, m)
			for _, v := range m {
				out = append(out, uint64(v))
			}
		}
		for i := 0; i < 150; i++ {
			out = append(out, uint64(rng.NormFloat64()*1e9))
		}
	}
	return out
}

// The shared-prefix stream draws what math/rand draws, before, across and far
// past the prefix boundary, for every method the zoo calls; Seed rewinds it;
// readers of one prefix run concurrently (run with -race); and the cache
// holds a fixed handful of seeds however many are drawn from.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 7, 42, -5, 1 << 40, 89482311}
	want := make([][]uint64, len(seeds))
	for i, seed := range seeds {
		want[i] = draws(rand.New(rand.NewSource(seed)))
		if len(want[i]) < 3*prefixLen {
			t.Fatalf("the mix draws %d values, not far enough past the %d-word prefix", len(want[i]), prefixLen)
		}
		if got := draws(newRand(seed)); !slices.Equal(got, want[i]) {
			t.Fatalf("seed %d: the stream diverges from math/rand at draw %d", seed, firstDiff(got, want[i]))
		}
	}
	// Word by word across the boundary.
	for _, seed := range seeds {
		ref, s := rand.NewSource(seed).(rand.Source64), &stream{p: prefixOf(seed)}
		for i := 0; i < 4*prefixLen; i++ {
			if a, b := s.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %d, word %d: %x, math/rand %x", seed, i, a, b)
			}
		}
	}
	rng := newRand(3)
	rng.Int63()
	rng.Seed(42)
	if got := draws(rng); !slices.Equal(got, want[2]) {
		t.Fatalf("a reseeded stream diverges at draw %d", firstDiff(got, want[2]))
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				i := (w + r) % len(seeds)
				if got := draws(newRand(seeds[i])); !slices.Equal(got, want[i]) {
					t.Errorf("concurrent reader of seed %d diverges at draw %d", seeds[i], firstDiff(got, want[i]))
				}
			}
		}()
	}
	wg.Wait()

	// The cache is a fixed handful of slots: forty seeds later the first one
	// has been evicted, and is rebuilt the same.
	for seed := int64(100); seed < 140; seed++ {
		newRand(seed)
	}
	for i := range prefixes {
		if p := prefixes[i].Load(); p != nil && p.seed == seeds[0] {
			t.Errorf("seed %d still cached after forty others", seeds[0])
		}
	}
	if got := draws(newRand(seeds[0])); !slices.Equal(got, want[0]) {
		t.Fatalf("a rebuilt prefix diverges at draw %d", firstDiff(got, want[0]))
	}
}

func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// A Train draws from a shared prefix instead of seeding a source: a short
// stream allocates the generator and nothing else.
func TestStreamAllocations(t *testing.T) {
	newRand(42)
	if n := testing.AllocsPerRun(100, func() { newRand(42).NormFloat64() }); n > 2 {
		t.Errorf("a short stream allocates %v times, want at most 2", n)
	}
}

// permInto fills m with the permutation rng.Perm(len(m)) would return, drawing
// the same numbers, without allocating: the reference permPrefixInto's draws
// and prefixes are held to.
func permInto(rng *rand.Rand, m []int) {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}

// permPrefixInto writes the first k entries of the permutation permInto
// writes, for every k up to n, from the same draws: the next draw after it
// is the next draw after permInto too.
func TestPermPrefixMatchesPermInto(t *testing.T) {
	for _, seed := range []int64{0, 7, 42, -5, 89482311} {
		for n := 0; n <= 300; n++ {
			want := make([]int, n)
			ref := newRand(seed)
			permInto(ref, want)
			next := ref.Int63()
			for k := 0; k <= n; k++ {
				rng := newRand(seed)
				got := make([]int, k)
				permPrefixInto(rng, n, got)
				if !slices.Equal(got, want[:k]) {
					t.Fatalf("seed %d, n %d, k %d: prefix %v, permInto's %v", seed, n, k, got, want[:k])
				}
				if d := rng.Int63(); d != next {
					t.Fatalf("seed %d, n %d, k %d: next draw %d, after permInto %d", seed, n, k, d, next)
				}
			}
		}
	}
}
