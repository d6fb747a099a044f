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
	gamma    float64
	weights  []float64 // len(mu)+1, last is bias
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
func (m *RBFNetwork) Train(X [][]float64, y []float64) error {
	if _, err := validate(X, y); err != nil {
		return err
	}
	m.std = fitStandardizer(X)
	Z := m.std.applyAll(X)

	k := m.centers
	if k > len(Z) {
		k = len(Z)
	}
	m.trainedK = k
	m.mu = kmeansCenters(Z, k, m.seed, 20)

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
	var s lsq
	s.reset(k + 1)
	for i, z := range Z {
		s.add(m.activations(z), y[i])
	}
	w := make([]float64, k+1)
	if !s.solve(1e-6, w) {
		return errNotPD
	}
	m.weights = w
	return nil
}

func (m *RBFNetwork) activations(z []float64) []float64 {
	act := make([]float64, m.trainedK+1)
	for i := 0; i < m.trainedK; i++ {
		act[i] = math.Exp(-m.gamma * sqDist(z, m.mu[i]))
	}
	act[m.trainedK] = 1 // bias
	return act
}

// Predict implements Model.
func (m *RBFNetwork) Predict(x []float64) float64 {
	if m.weights == nil {
		return 0
	}
	return dot(m.activations(m.std.apply(x)), m.weights)
}

// kmeansCenters runs Lloyd's algorithm over standardized points and returns
// k centres. Deterministic given the seed.
func kmeansCenters(Z [][]float64, k int, seed int64, iters int) [][]float64 {
	rng := newRand(seed)
	n := len(Z)
	centers := make([][]float64, k)
	perm := rng.Perm(n)
	for i := 0; i < k; i++ {
		centers[i] = append([]float64(nil), Z[perm[i%n]]...)
	}
	assign := make([]int, n)
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
			sum := make([]float64, len(Z[0]))
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
				centers[c] = sum
			}
		}
	}
	return centers
}
