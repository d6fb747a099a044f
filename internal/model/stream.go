package model

import (
	"math/rand"
	"sync/atomic"
)

// math/rand's default source is an additive lagged-Fibonacci generator: from
// its 607th output on, output i is output i-607 plus output i-273 (mod 2^64),
// so the first 607 outputs of a seed determine all later ones. Seeding one
// costs some two thousand multiplications and a 4.9 KB register, where most
// Trains draw a few dozen numbers.
const (
	rngLen    = 607
	rngTap    = 273
	prefixLen = 2 * rngLen
)

// prefix is the first prefixLen outputs of one seed's math/rand source,
// shared by every stream of that seed and never written after it is built.
type prefix struct {
	seed  int64
	words [prefixLen]uint64
}

// prefixes caches the prefixes of the last few seeds: a platform draws from
// one seed, a test or an experiment from a handful.
var (
	prefixes [8]atomic.Pointer[prefix]
	nextSlot atomic.Uint32
)

func prefixOf(seed int64) *prefix {
	for i := range prefixes {
		if p := prefixes[i].Load(); p != nil && p.seed == seed {
			return p
		}
	}
	p := &prefix{seed: seed}
	src := rand.NewSource(seed).(rand.Source64)
	for i := range p.words {
		p.words[i] = src.Uint64()
	}
	prefixes[nextSlot.Add(1)%uint32(len(prefixes))].Store(p)
	return p
}

// stream is a rand.Source64 that yields exactly what rand.NewSource(seed)
// would: it replays the seed's shared prefix, then continues the recurrence
// on a private window of the last rngLen outputs.
type stream struct {
	p   *prefix
	pos int             // outputs drawn
	win *[rngLen]uint64 // output i at win[i%rngLen], once past the prefix
}

// newRand returns a generator drawing the same numbers as
// rand.New(rand.NewSource(seed)).
func newRand(seed int64) *rand.Rand {
	return rand.New(&stream{p: prefixOf(seed)})
}

func (s *stream) Seed(seed int64) { *s = stream{p: prefixOf(seed)} }

func (s *stream) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

func (s *stream) Uint64() uint64 {
	i := s.pos
	s.pos++
	if i < prefixLen {
		return s.p.words[i]
	}
	if s.win == nil {
		// prefixLen is a multiple of rngLen: the prefix's second half is the
		// window, slot for slot.
		s.win = new([rngLen]uint64)
		copy(s.win[:], s.p.words[prefixLen-rngLen:])
	}
	slot := i % rngLen
	x := s.win[slot] + s.win[(slot+rngLen-rngTap)%rngLen]
	s.win[slot] = x
	return x
}

// permInto fills m with the permutation rng.Perm(len(m)) would return, drawing
// the same numbers, without allocating.
func permInto(rng *rand.Rand, m []int) {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}
