package musqle

import (
	"math"
	"sort"
	"sync"
)

// Calibrator implements the estimation-accuracy machinery of Appendix B
// §V-B: MuSQLE records every (estimated, actual) execution-time pair per
// engine, fits a linear correction mapping raw engine estimates to observed
// times, and computes the estimate/actual correlation. Engines whose
// estimates fail to correlate with reality can be discounted by the
// optimizer (low confidence).
type Calibrator struct {
	mu      sync.Mutex
	samples map[string][][2]float64 // engine -> (estimated, actual)
}

// minSamples is how many observations an engine needs before a correction
// is applied or its trust is judged.
const minSamples = 3

// NewCalibrator returns an empty calibrator.
func NewCalibrator() *Calibrator {
	return &Calibrator{samples: make(map[string][][2]float64)}
}

// Record stores one estimated-vs-actual observation for an engine.
func (c *Calibrator) Record(engine string, estimated, actual float64) {
	if estimated <= 0 || actual <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples[engine] = append(c.samples[engine], [2]float64{estimated, actual})
}

// SampleCount reports the observations recorded for an engine.
func (c *Calibrator) SampleCount(engine string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.samples[engine])
}

// Adjust maps a raw engine estimate to a calibrated execution-time
// prediction using the fitted linear model; with insufficient samples the
// estimate passes through unchanged.
func (c *Calibrator) Adjust(engine string, estimated float64) float64 {
	c.mu.Lock()
	pts := c.samples[engine]
	c.mu.Unlock()
	if len(pts) < minSamples {
		return estimated
	}
	slope, intercept := fitLine(pts)
	adjusted := slope*estimated + intercept
	if adjusted <= 0 {
		return estimated
	}
	return adjusted
}

// Correlation returns the Pearson correlation between estimates and actual
// times for an engine (0 when undetermined). The paper uses it as the
// confidence in the engine's cost API.
func (c *Calibrator) Correlation(engine string) float64 {
	c.mu.Lock()
	pts := append([][2]float64(nil), c.samples[engine]...)
	c.mu.Unlock()
	n := float64(len(pts))
	if n < 2 {
		return 0
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p[0]
		sy += p[1]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for _, p := range pts {
		cov += (p[0] - mx) * (p[1] - my)
		vx += (p[0] - mx) * (p[0] - mx)
		vy += (p[1] - my) * (p[1] - my)
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// Trusted reports whether the engine's estimates correlate with actual
// times at or above the threshold (engines with too few samples are trusted
// by default, as in the paper's bootstrap phase).
func (c *Calibrator) Trusted(engine string, minCorrelation float64) bool {
	c.mu.Lock()
	n := len(c.samples[engine])
	c.mu.Unlock()
	if n < minSamples {
		return true
	}
	return c.Correlation(engine) >= minCorrelation
}

// Engines lists engines with recorded samples, sorted.
func (c *Calibrator) Engines() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.samples))
	for n := range c.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fitLine computes the least-squares line actual = slope*estimated +
// intercept over the samples; degenerate inputs return the identity.
func fitLine(pts [][2]float64) (slope, intercept float64) {
	n := float64(len(pts))
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		sx += p[0]
		sy += p[1]
		sxx += p[0] * p[0]
		sxy += p[0] * p[1]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 1, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	if slope <= 0 {
		return 1, 0 // refuse anti-correlated corrections
	}
	return slope, intercept
}

// ObserveExecution feeds a completed execution back into the calibrator:
// each engine's estimated share (from the plan) is paired with its actual
// share (from the result).
func (c *Calibrator) ObserveExecution(plan *OptimizedPlan, res *ExecResult) {
	if plan == nil || res == nil {
		return
	}
	est := perEngineEstimates(plan.Root)
	for engine, actual := range res.PerEngineSec {
		if e, ok := est[engine]; ok {
			c.Record(engine, e, actual)
		}
	}
}

// perEngineEstimates sums each engine's own estimated contribution in the
// plan tree (node cost minus children, attributed to the node's engine).
func perEngineEstimates(n *PlanNode) map[string]float64 {
	out := make(map[string]float64)
	var walk func(n *PlanNode) float64
	walk = func(n *PlanNode) float64 {
		if n == nil {
			return 0
		}
		children := walk(n.Left) + walk(n.Right) + walk(n.Child)
		own := n.CostSec - children
		if own > 0 {
			out[n.Engine] += own
		}
		return n.CostSec
	}
	walk(n)
	return out
}
