package musqle

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Engine names of the integrated stack (Appendix B integrates exactly these
// three).
const (
	EnginePostgres = "PostgreSQL"
	EngineMemSQL   = "MemSQL"
	EngineSpark    = "SparkSQL"
)

// Engine is the generic SQL engine API of MuSQLE (Appendix B §IV): cost and
// statistics estimation plus load-cost for intermediate shipping. The
// optimizer is engine-agnostic; integrating a new engine means implementing
// this interface. Statistics injection is modelled by the optimizer passing
// its cardinality estimates into the cost calls (a what-if interface); see
// Optimizer.StatsInjection.
type Engine interface {
	// Name identifies the engine.
	Name() string
	// ScanSec estimates scanning (and filtering) rows of bytes total size
	// resident on this engine.
	ScanSec(rows, bytes float64) float64
	// JoinSec estimates a binary join with the given input/output
	// cardinalities. ok=false signals the engine cannot execute it (e.g.
	// distributed-memory OOM).
	JoinSec(leftRows, rightRows, outRows float64) (sec float64, ok bool)
	// LoadSec estimates materializing an external intermediate of the
	// given size into this engine.
	LoadSec(rows, bytes float64) float64
	// StartupSec is a once-per-query session cost when the engine
	// participates in the plan.
	StartupSec() float64
}

// PostgresEngine models a centralized disk-based RDBMS: instant startup,
// fast for small inputs, single-core scaling, expensive ingest of external
// data.
type PostgresEngine struct{}

// Name implements Engine.
func (PostgresEngine) Name() string { return EnginePostgres }

// ScanSec implements Engine.
func (PostgresEngine) ScanSec(rows, bytes float64) float64 {
	return 0.002 + rows/2e6
}

// JoinSec implements Engine.
func (PostgresEngine) JoinSec(l, r, out float64) (float64, bool) {
	// Single-node hash join: linear in inputs and output, with a mild
	// super-linear term once inputs spill past the buffer cache.
	n := l + r
	sec := 0.002 + n/4e6 + out/4e6
	if n > 5e6 {
		sec += (n - 5e6) * math.Log2(n) / 40e6
	}
	return sec, true
}

// LoadSec implements Engine.
func (PostgresEngine) LoadSec(rows, bytes float64) float64 {
	return 0.3 + bytes/30e6
}

// StartupSec implements Engine.
func (PostgresEngine) StartupSec() float64 { return 0.05 }

// MemSQLEngine models a distributed in-memory store: very fast joins while
// the working set fits the cluster's aggregate memory, hard failure beyond.
type MemSQLEngine struct{}

// memSQLLimitBytes bounds MemSQL's join working set: 2GB, the paper's
// observed MemSQL failure point.
const memSQLLimitBytes = 2e9

// Name implements Engine.
func (MemSQLEngine) Name() string { return EngineMemSQL }

// ScanSec implements Engine.
func (MemSQLEngine) ScanSec(rows, bytes float64) float64 {
	return 0.01 + rows/2e7
}

// JoinSec implements Engine.
func (MemSQLEngine) JoinSec(l, r, out float64) (float64, bool) {
	// Hash tables + intermediate result must fit in memory; ~64B/row with
	// operational overhead x3.
	if (l+r+out)*64*3 > memSQLLimitBytes {
		return 0, false
	}
	return 0.05 + (l+r)/2e7 + out/2e7, true
}

// LoadSec implements Engine.
func (MemSQLEngine) LoadSec(rows, bytes float64) float64 {
	return 0.2 + bytes/80e6
}

// StartupSec implements Engine.
func (MemSQLEngine) StartupSec() float64 { return 0.1 }

// SparkEngine models the distributed disk-backed executor: session startup
// and per-stage shuffle overheads, linear scaling, no memory wall.
type SparkEngine struct{}

// Name implements Engine.
func (SparkEngine) Name() string { return EngineSpark }

// ScanSec implements Engine.
func (SparkEngine) ScanSec(rows, bytes float64) float64 {
	return 0.5 + rows/1e7
}

// JoinSec implements Engine.
func (SparkEngine) JoinSec(l, r, out float64) (float64, bool) {
	return 1.5 + (l+r)/1e7 + out/1e7, true
}

// LoadSec implements Engine.
func (SparkEngine) LoadSec(rows, bytes float64) float64 {
	return 0.5 + bytes/100e6
}

// StartupSec implements Engine.
func (SparkEngine) StartupSec() float64 { return 6.0 }

// Registry holds the deployed engines.
type Registry struct {
	mu      sync.RWMutex
	engines map[string]Engine
}

// NewRegistry builds a registry with the given engines.
func NewRegistry(engines ...Engine) *Registry {
	r := &Registry{engines: make(map[string]Engine, len(engines))}
	for _, e := range engines {
		r.engines[e.Name()] = e
	}
	return r
}

// DefaultRegistry returns the three-engine stack of the paper.
func DefaultRegistry() *Registry {
	return NewRegistry(PostgresEngine{}, MemSQLEngine{}, SparkEngine{})
}

// Add registers an engine.
func (r *Registry) Add(e Engine) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.engines[e.Name()] = e
}

// Get returns an engine by name.
func (r *Registry) Get(name string) (Engine, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.engines[name]
	return e, ok
}

// Names lists engine names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.engines))
	for n := range r.engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SyntheticEngine is a tunable engine used by the optimization-time
// benchmarks (MuSQLE Fig 5 simulates 2-6 engine APIs).
type SyntheticEngine struct {
	ID       string
	ScanRate float64 // rows/sec
	JoinRate float64 // rows/sec
	Fixed    float64 // per-operation overhead sec
	LoadRate float64 // bytes/sec
	StartSec float64
}

// Name implements Engine.
func (e SyntheticEngine) Name() string { return e.ID }

// ScanSec implements Engine.
func (e SyntheticEngine) ScanSec(rows, bytes float64) float64 {
	return e.Fixed + rows/e.ScanRate
}

// JoinSec implements Engine.
func (e SyntheticEngine) JoinSec(l, r, out float64) (float64, bool) {
	return e.Fixed + (l+r+out)/e.JoinRate, true
}

// LoadSec implements Engine.
func (e SyntheticEngine) LoadSec(rows, bytes float64) float64 {
	return e.Fixed + bytes/e.LoadRate
}

// StartupSec implements Engine.
func (e SyntheticEngine) StartupSec() float64 { return e.StartSec }

// SyntheticRegistry builds n synthetic engines with varied rates, for the
// engine-count scaling experiments.
func SyntheticRegistry(n int) *Registry {
	r := &Registry{engines: make(map[string]Engine, n)}
	for i := 0; i < n; i++ {
		r.Add(SyntheticEngine{
			ID:       fmt.Sprintf("engine%d", i),
			ScanRate: 1e6 * float64(1+i%4),
			JoinRate: 5e5 * float64(1+i%3),
			Fixed:    0.01 * float64(1+i%5),
			LoadRate: 50e6,
			StartSec: 0.2 * float64(i%3),
		})
	}
	return r
}
