// Package engine simulates the execution engines and datastores that IReS
// schedules over (Hadoop/MapReduce, Spark, Hama, Java, scikit, MLlib,
// PostgreSQL, MemSQL, ...). The real platform treats engines as black boxes
// observed only through run metrics; this package supplies the same
// observation surface from analytic ground-truth cost curves, calibrated so
// the performance regimes reported in D3.3 Figures 11-13 (centralized wins
// small, BSP-in-memory wins medium then OOMs, Spark scales; per-store SQL
// locality) are reproduced on a laptop.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/asap-project/ires/internal/metrics"
)

// Failure modes surfaced by the simulated engines.
var (
	// ErrOutOfMemory indicates the working set exceeded the engine's memory
	// capacity (single-node for centralized engines, cluster aggregate for
	// distributed in-memory engines).
	ErrOutOfMemory = errors.New("engine: out of memory")
	// ErrUnavailable indicates the engine service is OFF (killed or not
	// deployed), as tracked by the availability monitor.
	ErrUnavailable = errors.New("engine: service unavailable")
	// ErrUnknownEngine indicates the engine is not registered.
	ErrUnknownEngine = errors.New("engine: unknown engine")
	// ErrUnknownAlgorithm indicates no workload profile exists for the
	// algorithm on the chosen engine.
	ErrUnknownAlgorithm = errors.New("engine: unknown algorithm")
)

// Resources describes the container resources provisioned for a run,
// following the paper's cost metric #VM * cores/VM * GB/VM * t.
type Resources struct {
	Nodes     int // number of containers/VMs
	CoresPerN int // cores per container
	MemMBPerN int // main memory per container, MB
}

// TotalCores returns the total core count.
func (r Resources) TotalCores() int { return r.Nodes * r.CoresPerN }

// TotalMemMB returns the aggregate memory in MB.
func (r Resources) TotalMemMB() int { return r.Nodes * r.MemMBPerN }

// CostRate returns the paper's resource cost rate: #VM * cores/VM * GB/VM.
// Multiplying by execution time (in seconds) yields the execution cost.
func (r Resources) CostRate() float64 {
	return CostRate(float64(r.Nodes), float64(r.CoresPerN), float64(r.MemMBPerN))
}

// CostRate is Resources.CostRate over feature values (nodes, cores per node,
// memory per node in MB): the one place the formula lives.
func CostRate(nodes, cores, memMB float64) float64 {
	return nodes * cores * memMB / 1024.0
}

func (r Resources) String() string {
	return fmt.Sprintf("%dx(%dc,%dMB)", r.Nodes, r.CoresPerN, r.MemMBPerN)
}

// Validate checks the resource request is positive in all dimensions.
func (r Resources) Validate() error {
	if r.Nodes <= 0 || r.CoresPerN <= 0 || r.MemMBPerN <= 0 {
		return fmt.Errorf("engine: invalid resources %v", r)
	}
	return nil
}

// Input describes the data fed to a simulated run.
type Input struct {
	Records int64
	Bytes   int64
	// Params carries operator-specific parameters (e.g. "iterations" for
	// PageRank, "k" for k-means).
	Params map[string]float64
}

// Param returns a named parameter with a default.
func (in Input) Param(name string, def float64) float64 {
	if v, ok := in.Params[name]; ok {
		return v
	}
	return def
}

// Profile captures the black-box performance character of one engine.
// The simulator derives execution time as
//
//	t = Startup + PerTask*tasks + W / (Rate * speedup(p)) * diskSlowdown
//
// where W is the workload's abstract compute volume, p the effective
// parallelism, and speedup follows Amdahl's law with the engine's serial
// fraction.
type Profile struct {
	Name        string
	Centralized bool // runs on a single node regardless of provisioned nodes
	// InMemory engines hold the working set in RAM: centralized ones are
	// bounded by one node's memory, distributed ones by cluster aggregate.
	InMemory bool

	StartupSec  float64 // job submission / JVM / session overhead
	PerTaskSec  float64 // scheduling overhead per parallel task wave
	RateUnitsPS float64 // abstract compute units per second per core
	SerialFrac  float64 // Amdahl serial fraction in [0,1]
	DiskBound   float64 // fraction of runtime scaled by the infra disk factor

	// MemOverhead multiplies the workload's per-record memory need (e.g.
	// BSP message buffers make Hama hungrier than Spark).
	MemOverhead float64

	FS string // native datastore ("HDFS", "LFS", "PostgreSQL", "MemSQL")
}

// Workload captures the per-algorithm cost shape, engine-independent.
type Workload struct {
	Algorithm string
	// UnitsPerRecord is the abstract compute volume per input record.
	UnitsPerRecord float64
	// LogN adds an n*log2(n) component (sorts, shuffles).
	LogN bool
	// IterParam names the parameter holding the iteration count; empty for
	// single-pass operators. DefaultIters applies when the parameter is
	// absent.
	IterParam    string
	DefaultIters float64
	// MemBytesPerRecord is the in-memory working-set footprint per record.
	MemBytesPerRecord float64
	// OutputFactor relates output bytes/records to input.
	OutputFactor float64
	// MinOutputRecords floors the output cardinality (e.g. k-means emits at
	// least k centroids).
	MinOutputRecords int64
	// ScaleParams scale the compute volume linearly with named parameters
	// relative to a reference value (e.g. k-means cost grows with "k").
	ScaleParams []ParamScale
	// Affinity multiplies an engine's compute rate for this algorithm
	// (implementation-quality interactions: e.g. scikit's C-optimized
	// vectorizer excels at tf-idf while its k-means lags). Engines absent
	// from the map run at their base rate.
	Affinity map[string]float64
}

// ParamScale declares that compute volume scales linearly with Param,
// normalised at Ref (volume is multiplied by param/Ref).
type ParamScale struct {
	Param string
	Ref   float64
}

// Infrastructure models cluster-wide hardware characteristics that affect
// every engine. DiskFactor scales disk-bound time (1.0 = the baseline HDD
// substrate; the Fig 16b experiment swaps in SSDs with a smaller factor).
type Infrastructure struct {
	DiskFactor    float64
	NetworkMBps   float64 // inter-engine transfer bandwidth
	TransferFixed float64 // fixed seconds per data movement (session setup)
	// CheckpointMBps is the aggregate bandwidth available for writing
	// sub-operator checkpoints to durable storage; zero or negative falls
	// back to NetworkMBps (so infrastructures built before the field existed
	// keep a sane checkpoint cost).
	CheckpointMBps float64
}

// DefaultInfrastructure returns the baseline HDD infrastructure.
func DefaultInfrastructure() Infrastructure {
	return Infrastructure{DiskFactor: 1.0, NetworkMBps: 100, TransferFixed: 1.5, CheckpointMBps: 200}
}

// Environment is the deployed multi-engine cloud: the engine registry,
// workload profiles, infrastructure state and service availability. It is
// the ground truth the profiler samples and the executor charges against.
// Environment is safe for concurrent use.
type Environment struct {
	mu        sync.RWMutex
	engines   map[string]Profile
	workloads map[string]Workload
	infra     Infrastructure
	available map[string]bool
	noise     *noiseSource
	// availGen counts availability flips; infraGen counts registrations and
	// infrastructure swaps. The planner reads availability as part of its
	// memo keys, so a flip evicts nothing, while infrastructure changes —
	// which shift every resource/estimate — force a wholesale flush via
	// InfraGen.
	availGen uint64
	infraGen uint64
}

// Gen returns the environment's total mutation generation counter
// (availability flips plus infrastructure/registration changes).
func (e *Environment) Gen() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.availGen + e.infraGen
}

// InfraGen returns the generation counter of infrastructure-shaped
// mutations only: engine registrations and infrastructure swaps.
func (e *Environment) InfraGen() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.infraGen
}

// NewEnvironment returns an environment with the given infrastructure and
// no engines registered. Seed drives the deterministic run-to-run noise.
func NewEnvironment(infra Infrastructure, seed int64) *Environment {
	return &Environment{
		engines:   make(map[string]Profile),
		workloads: make(map[string]Workload),
		infra:     infra,
		available: make(map[string]bool),
		noise:     newNoiseSource(seed),
	}
}

// Register adds (or replaces) an engine profile; the engine starts ON.
func (e *Environment) Register(p Profile) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.engines[p.Name] = p
	e.available[p.Name] = true
	e.infraGen++
}

// RegisterWorkload adds (or replaces) an algorithm workload profile.
func (e *Environment) RegisterWorkload(w Workload) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.workloads[w.Algorithm] = w
}

// Engine returns the profile of a registered engine.
func (e *Environment) Engine(name string) (Profile, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, ok := e.engines[name]
	return p, ok
}

// Engines returns the registered engine names, sorted.
func (e *Environment) Engines() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.engines))
	for n := range e.engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SetAvailable flips an engine's service status (ON/OFF). Unavailable
// engines fail every run and are excluded by the planner.
func (e *Environment) SetAvailable(name string, on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.available[name] != on {
		e.availGen++
	}
	e.available[name] = on
}

// Available reports the engine's service status.
func (e *Environment) Available(name string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.available[name]
}

// Infrastructure returns the current infrastructure state.
func (e *Environment) Infrastructure() Infrastructure {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.infra
}

// SetInfrastructure swaps the infrastructure (e.g. the Fig 16b HDD -> SSD
// upgrade). Subsequent runs observe the new hardware.
func (e *Environment) SetInfrastructure(infra Infrastructure) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.infra = infra
	e.infraGen++
}

// GroundTruthSec computes the noise-free execution time of algorithm on
// engineName with the given input and resources. It returns ErrOutOfMemory
// when the working set exceeds capacity. This is what a perfectly informed
// oracle would predict; Execute adds run-to-run noise.
func (e *Environment) GroundTruthSec(engineName, algorithm string, in Input, res Resources) (float64, error) {
	e.mu.RLock()
	p, okE := e.engines[engineName]
	w, okW := e.workloads[algorithm]
	infra := e.infra
	e.mu.RUnlock()
	if !okE {
		return 0, fmt.Errorf("%w: %s", ErrUnknownEngine, engineName)
	}
	if !okW {
		return 0, fmt.Errorf("%w: %s on %s", ErrUnknownAlgorithm, algorithm, engineName)
	}
	if err := res.Validate(); err != nil {
		return 0, err
	}
	return groundTruth(p, w, infra, in, res)
}

func groundTruth(p Profile, w Workload, infra Infrastructure, in Input, res Resources) (float64, error) {
	n := float64(in.Records)
	if n < 1 {
		n = 1
	}
	iters := 1.0
	if w.IterParam != "" {
		iters = in.Param(w.IterParam, w.DefaultIters)
		if iters < 1 {
			iters = 1
		}
	}

	// Memory feasibility.
	if p.InMemory {
		need := n * w.MemBytesPerRecord * p.MemOverhead
		var capBytes float64
		if p.Centralized {
			capBytes = float64(res.MemMBPerN) * 1e6
		} else {
			capBytes = float64(res.TotalMemMB()) * 1e6
		}
		if need > capBytes {
			return 0, fmt.Errorf("%w: need %.0fMB, have %.0fMB on %s",
				ErrOutOfMemory, need/1e6, capBytes/1e6, p.Name)
		}
	}

	// Compute volume.
	units := n * w.UnitsPerRecord
	if w.LogN {
		units *= math.Log2(n + 2)
	}
	units *= iters
	for _, s := range w.ScaleParams {
		v := in.Param(s.Param, s.Ref)
		if v < 1 {
			v = 1
		}
		if s.Ref > 0 {
			units *= v / s.Ref
		}
	}

	// Effective parallelism with Amdahl scaling.
	cores := float64(res.TotalCores())
	if p.Centralized {
		cores = float64(res.CoresPerN)
	}
	if cores < 1 {
		cores = 1
	}
	speedup := 1.0 / (p.SerialFrac + (1.0-p.SerialFrac)/cores)

	rate := p.RateUnitsPS
	if aff, ok := w.Affinity[p.Name]; ok && aff > 0 {
		rate *= aff
	}
	compute := units / (rate * speedup)

	// Disk-bound share is stretched by the infrastructure disk factor.
	compute = compute*(1.0-p.DiskBound) + compute*p.DiskBound*infra.DiskFactor

	// Per-wave task overhead: one wave per iteration on distributed engines.
	tasks := 0.0
	if !p.Centralized {
		tasks = iters
	}
	return p.StartupSec + p.PerTaskSec*tasks + compute, nil
}

// Execute performs a simulated run: it computes the ground-truth duration,
// applies deterministic multiplicative noise, and assembles the full
// monitoring record.
func (e *Environment) Execute(engineName, algorithm string, in Input, res Resources) (*metrics.Run, error) {
	run := &metrics.Run{
		Algorithm: algorithm,
		Engine:    engineName,
		Params:    runParams(in, res),
	}
	if !e.Available(engineName) {
		run.Failed = true
		run.FailureReason = ErrUnavailable.Error()
		return run, fmt.Errorf("%w: %s", ErrUnavailable, engineName)
	}
	sec, err := e.GroundTruthSec(engineName, algorithm, in, res)
	if err != nil {
		run.Failed = true
		run.FailureReason = err.Error()
		return run, err
	}
	sec *= e.noise.factor(engineName, algorithm)

	e.mu.RLock()
	w := e.workloads[algorithm]
	e.mu.RUnlock()

	run.ExecTimeSec = sec
	run.CostUnits = res.CostRate() * sec
	run.InputRecords = in.Records
	run.InputBytes = in.Bytes
	outRecords := int64(float64(in.Records) * w.OutputFactor)
	if outRecords < w.MinOutputRecords {
		outRecords = w.MinOutputRecords
	}
	run.OutputRecords = outRecords
	run.OutputBytes = int64(float64(in.Bytes) * w.OutputFactor)
	return run, nil
}

// TransferSec returns the simulated duration of moving size bytes between
// two engines/datastores (the move/transform operators the planner inserts).
func (e *Environment) TransferSec(bytes int64) float64 {
	infra := e.Infrastructure()
	if bytes < 0 {
		bytes = 0
	}
	return infra.TransferFixed + float64(bytes)/(infra.NetworkMBps*1e6)
}

func runParams(in Input, res Resources) map[string]float64 {
	p := map[string]float64{
		"records":  float64(in.Records),
		"bytes":    float64(in.Bytes),
		"nodes":    float64(res.Nodes),
		"cores":    float64(res.CoresPerN),
		"memoryMB": float64(res.MemMBPerN),
	}
	for k, v := range in.Params {
		p[k] = v
	}
	return p
}
