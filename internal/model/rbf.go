package model

import "math"

// RBFNetwork is a radial-basis-function network (Broomhead & Lowe): k-means
// picks the centres over standardized features, Gaussian activations feed a
// linear output layer solved in closed form.
type RBFNetwork struct {
	centers  int
	seed     int64
	std      *standardizer
	mu       [][]float64
	muFlat   []float64 // mu's buffer
	gamma    float64
	weights  []float64 // len(mu)+1, last is bias; nil until trained
	wbuf     []float64 // weights' buffer
	trainedK int
}

// NewRBFNetwork returns an untrained RBF network with the given number of
// centres.
func NewRBFNetwork(centers int, seed int64) *RBFNetwork {
	if centers < 1 {
		centers = 1
	}
	return &RBFNetwork{centers: centers, seed: seed}
}

// Name implements Model.
func (m *RBFNetwork) Name() string { return "RBFNetwork" }

// Train implements Model.
func (m *RBFNetwork) Train(X [][]float64, y []float64) error { return m.train(new(scratch), X, y, nil) }

func (m *RBFNetwork) train(s *scratch, X [][]float64, y []float64, _ *rowGroups) error {
	m.weights = nil
	dims, err := validate(X, y)
	if err != nil {
		return err
	}
	m.std = refitStandardizer(m.std, X)
	Z := carve(&s.z, &s.zflat, len(X), dims)
	m.std.applyInto(Z, X)

	k := m.centers
	if k > len(Z) {
		k = len(Z)
	}
	m.trainedK = k
	m.mu = carve(&m.mu, &m.muFlat, k, dims)
	kmeansCenters(s, m.mu, Z, m.seed, 20)

	// Bandwidth: inverse of the mean inter-centre distance.
	m.gamma = 1.0
	if k > 1 {
		sum, cnt := 0.0, 0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				sum += math.Sqrt(sqDist(m.mu[i], m.mu[j]))
				cnt++
			}
		}
		if cnt > 0 && sum > 0 {
			d := sum / float64(cnt)
			m.gamma = 1.0 / (2 * d * d)
		}
	}

	// The activations are the design rows, solved by ridge-stabilised least
	// squares.
	s.lsq.reset(k + 1)
	act := resize(&s.act, k+1)
	for i, z := range Z {
		s.lsq.add(m.activationsInto(act, z), y[i])
	}
	w := resize(&m.wbuf, k+1)
	if !s.lsq.solve(1e-6, w) {
		return errNotPD
	}
	m.weights = w
	return nil
}

// activationsInto writes z's activations, the bias last, to act.
func (m *RBFNetwork) activationsInto(act, z []float64) []float64 {
	for i := 0; i < m.trainedK; i++ {
		act[i] = math.Exp(-m.gamma * sqDist(z, m.mu[i]))
	}
	act[m.trainedK] = 1 // bias
	return act
}

// Predict implements Model. It allocates nothing: each feature is
// standardized where it is used, and the output sum adds activation × weight
// in dot's order, the bias (activation 1) last.
func (m *RBFNetwork) Predict(x []float64) float64 {
	if m.weights == nil {
		return 0
	}
	dims := min(len(x), len(m.std.mean))
	mean, scale := m.std.mean[:dims], m.std.scale[:dims]
	out := 0.0
	for i, mu := range m.mu[:m.trainedK] {
		d2 := 0.0
		for j, v := range x[:dims] {
			// The conversion rounds as storing the standardized copy did.
			d := float64((v-mean[j])*scale[j]) - mu[j]
			d2 += d * d
		}
		out += math.Exp(-m.gamma*d2) * m.weights[i]
	}
	return out + m.weights[m.trainedK]
}

// kmeansCenters runs Lloyd's algorithm over standardized points and writes
// len(centers) centres to centers, with s as scratch. Deterministic given
// the seed.
func kmeansCenters(s *scratch, centers, Z [][]float64, seed int64, iters int) {
	rng := s.rand(seed)
	n, k := len(Z), len(centers)
	// The first k entries of rng.Perm(n), from the same draws.
	perm := resize(&s.ints, k)
	permPrefixInto(rng, n, perm)
	for i := range centers {
		copy(centers[i], Z[perm[i%n]])
	}
	assign := resize(&s.assign, n)
	clear(assign)
	sum := resize(&s.sums, len(Z[0]))
	for it := 0; it < iters; it++ {
		changed := false
		for i, z := range Z {
			best, bd := 0, math.Inf(1)
			for c := range centers {
				if d := sqDist(z, centers[c]); d < bd {
					best, bd = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		for c := range centers {
			var members int
			clear(sum)
			for i, z := range Z {
				if assign[i] == c {
					members++
					for j := range z {
						sum[j] += z[j]
					}
				}
			}
			if members > 0 {
				for j := range sum {
					sum[j] /= float64(members)
				}
				copy(centers[c], sum)
			}
		}
	}
}
