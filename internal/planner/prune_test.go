package planner

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func (a pVec) dominates(b pVec) bool {
	return a.time <= b.time && a.money <= b.money && (a.time < b.time || a.money < b.money)
}

// pruneQuadratic is the pairwise prune the dominance sweep replaced, kept as
// its oracle: a member goes when any other dominates it or equals it at a
// lower index; above MaxFrontPerTag the survivors are thinned to the time
// extremes and evenly spaced members.
func pruneQuadratic(vs []pVec) []int {
	var nd []int
	for i, e := range vs {
		dominated := false
		for j, other := range vs {
			if i != j && (other.dominates(e) || (other == e && j < i)) {
				dominated = true
				break
			}
		}
		if !dominated {
			nd = append(nd, i)
		}
	}
	if len(nd) <= MaxFrontPerTag {
		return nd
	}
	sort.Slice(nd, func(i, j int) bool { return vs[nd[i]].time < vs[nd[j]].time })
	out := make([]int, 0, MaxFrontPerTag)
	step := float64(len(nd)-1) / float64(MaxFrontPerTag-1)
	for i := 0; i < MaxFrontPerTag; i++ {
		out = append(out, nd[int(float64(i)*step)])
	}
	return out
}

// TestPruneMatchesQuadraticReference drives both prunes over seeded random
// vector sets built to collide: duplicated points, shared times, shared
// costs, signed zeros, ±Inf and NaN components. The survivor sequences must
// be identical — below MaxFrontPerTag (the non-dominated set, in input
// order) and above it (the thinned front).
func TestPruneMatchesQuadraticReference(t *testing.T) {
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
	rng := rand.New(rand.NewSource(17))
	thinned := 0
	for round := 0; round < 4000; round++ {
		n := rng.Intn(40)
		if round%10 == 0 {
			n = 200 + rng.Intn(900) // paretoCandidates reaches 16 × 64
		}
		grid := 1 + rng.Intn(2*n+1) // few distinct values: many ties
		draw := func() float64 {
			if rng.Intn(12) == 0 {
				return special[rng.Intn(len(special))]
			}
			return float64(rng.Intn(grid))
		}
		vs := make([]pVec, n)
		for i := range vs {
			switch {
			case i > 0 && rng.Intn(6) == 0:
				vs[i] = vs[rng.Intn(i)] // exact duplicate
			case round%3 == 0:
				// An anti-chain (time up, money down) keeps everything, so
				// large rounds reach the thinning stage.
				vs[i] = pVec{float64(i), float64(n - i)}
			default:
				vs[i] = pVec{draw(), draw()}
			}
		}
		rng.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		want := pruneQuadratic(vs)
		got := new(Planner).prune(append([]pVec(nil), vs...))
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (n=%d): sweep keeps %v, pairwise reference keeps %v\nvectors: %v", round, n, got, want, vs)
		}
		if n > MaxFrontPerTag && len(want) == MaxFrontPerTag {
			thinned++
		}
	}
	if thinned < 100 {
		t.Fatalf("only %d rounds reached the thinning stage", thinned)
	}
}

// FuzzPrune checks the staircase prune against the pairwise reference on
// vectors decoded from the input. An even first byte reads each following
// byte as one component from few values (many ties, duplicates and shared
// coordinates) or, from 0xFC up, as +Inf, −Inf, NaN or −0; an odd one reads
// each 8 bytes as a component's raw bits.
func FuzzPrune(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2, 1, 1, 1, 0xFE, 3, 0xFC, 0xFD})
	f.Add([]byte{0, 0xFF, 0, 0, 0xFF, 5, 5, 5, 5, 4, 6})
	f.Add(append([]byte{1}, make([]byte, 64)...))
	anti := []byte{0}
	for i := byte(0); i < 40; i++ {
		anti = append(anti, i, 40-i)
	}
	f.Add(anti)
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var xs []float64
		if data[0]&1 == 0 {
			for _, b := range data[1:] {
				if b >= 0xFC {
					xs = append(xs, specials[b-0xFC])
				} else {
					xs = append(xs, float64(b%41))
				}
			}
		} else {
			for rest := data[1:]; len(rest) >= 8; rest = rest[8:] {
				xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(rest)))
			}
		}
		vs := make([]pVec, len(xs)/2)
		for i := range vs {
			vs[i] = pVec{xs[2*i], xs[2*i+1]}
		}
		want := pruneQuadratic(vs)
		got := new(Planner).prune(vs)
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("staircase keeps %v, pairwise reference keeps %v\nvectors: %v", got, want, vs)
		}
	})
}

// TestHasherWordBoundaries pins what the eight-bytes-per-step hasher must
// keep of the byte-wise one: strings that differ anywhere — in the padded
// tail, in length alone, or in how they split across two str calls — digest
// apart.
func TestHasherWordBoundaries(t *testing.T) {
	digest := func(parts ...string) sig {
		h := newHasher()
		for _, p := range parts {
			h.str(p)
		}
		return h.sum()
	}
	seen := map[sig]string{}
	add := func(label string, s sig) {
		if prev, ok := seen[s]; ok {
			t.Errorf("%s and %s digest alike", prev, label)
		}
		seen[s] = label
	}
	base := "Constraints.Engine.FS=HDFS\n"
	for n := 0; n <= len(base); n++ {
		add("prefix "+base[:n], digest(base[:n]))
		add("prefix+NUL "+base[:n], digest(base[:n]+"\x00"))
		add("split "+base[:n], digest(base[:n], base[n:]))
	}
	for i := 0; i < len(base); i++ {
		b := []byte(base)
		b[i] ^= 0x80
		add("flipped "+string(b), digest(string(b)))
	}
}
