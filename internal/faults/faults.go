// Package faults is a deterministic, seeded chaos-injection layer driven by
// virtual time. It models the failure shapes a production YARN deployment
// exhibits — transient engine errors, permanent service outages, node
// crashes and straggler slowdowns — so the executor's recovery machinery
// (retries, speculation, circuit breaking, replanning; D3.3 §2.3) can be
// exercised and measured without a real cluster. Everything is driven by a
// single seed: identical seeds produce identical fault timelines, which
// keeps the fault-sweep experiments and property tests reproducible.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/asap-project/ires/internal/cluster"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/vtime"
)

// ErrInjected marks a transient failure produced by the injection layer
// (a lost task, a flaky service RPC, a corrupted shuffle fetch). It is
// retryable: the same attempt on the same engine may well succeed.
var ErrInjected = errors.New("faults: injected transient failure")

// Transient parameterises the per-engine transient error process. Both
// knobs may be combined; either alone is enough.
type Transient struct {
	// FailProb is the per-attempt probability that a launch fails outright.
	FailProb float64
	// MTBFSec, when positive, adds a duration-dependent failure mode: an
	// attempt predicted to run d seconds fails with probability
	// 1-exp(-d/MTBF) — long runs are proportionally more exposed, the
	// classic exponential reliability model.
	MTBFSec float64
}

// Outage is a permanent engine-service failure at a virtual time: the
// service goes OFF and stays OFF (until something turns it back on).
type Outage struct {
	Engine string
	At     time.Duration
}

// NodeCrash kills a cluster node at a virtual time, invalidating the
// containers running on it (see cluster.FailNode).
type NodeCrash struct {
	Node string
	At   time.Duration
}

// Straggler parameterises slowdown injection: with probability Prob a run's
// duration is multiplied by Factor mid-flight, which is what per-step
// timeouts and speculative execution exist to absorb.
type Straggler struct {
	Prob   float64
	Factor float64 // e.g. 3.0; values <= 1 disable the slowdown
}

// OOMKill parameterises the memory-oversubscription fault. It only matters
// on clusters with a memory-overcommit ratio above 1: whenever an
// allocation pushes a node's actual usage past physical memory, the armed
// schedule is consulted once per candidate kill and fires with probability
// Prob, invalidating the node's largest live container (the cluster emits
// fault.oomkill and the loss feeds the executor's ordinary
// retry/checkpoint-restore recovery). Prob 0 disables the killer: the
// oversubscribed node is tolerated silently.
type OOMKill struct {
	Prob float64
}

// Config declares a full fault schedule.
type Config struct {
	// Seed drives every random draw; zero is a valid seed.
	Seed int64
	// Default applies to engines absent from PerEngine.
	Default Transient
	// PerEngine overrides the transient process for specific engines.
	PerEngine map[string]Transient
	// Outages and NodeCrashes fire at their virtual times once armed.
	Outages     []Outage
	NodeCrashes []NodeCrash
	// Straggler applies to every operator attempt.
	Straggler Straggler
	// OOM governs the OOM killer on memory-overcommitted clusters.
	OOM OOMKill
}

// Stats counts what the schedule actually injected.
type Stats struct {
	Transient  int `json:"transient"`  // injected launch failures
	Stragglers int `json:"stragglers"` // slowed-down runs
	Outages    int `json:"outages"`    // permanent engine outages fired
	NodeCrash  int `json:"nodeCrashes"`
	OOMKills   int `json:"oomKills"` // containers killed for oversubscribed memory
}

// Schedule is an armed fault plan. It implements the executor's Injector
// interface; Arm wires the timed faults (outages, node crashes) onto the
// virtual clock. Schedule is safe for concurrent use.
type Schedule struct {
	mu     sync.Mutex
	cfg    Config
	rng    *rand.Rand
	stats  Stats
	armed  bool
	tracer trace.Tracer

	// The OOM-killer draw runs under the cluster's lock (the hook fires
	// mid-allocation), so it uses its own mutex and seeded stream instead
	// of s.mu/s.rng: taking s.mu there would invert the lock order against
	// emitLocked's tracer callbacks, and a dedicated stream keeps the
	// transient/straggler timeline invariant to how many OOM draws happen.
	oomMu    sync.Mutex
	oomRng   *rand.Rand
	oomKills int
}

// SetTracer installs the event sink for injected-fault events.
func (s *Schedule) SetTracer(t trace.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
}

// emitLocked stamps vt on ev and forwards to the tracer; the caller holds
// s.mu.
func (s *Schedule) emitLocked(ev trace.Event, vt time.Duration) {
	if s.tracer == nil {
		return
	}
	s.tracer.Emit(ev.At(vt))
}

// New builds a schedule from the config.
func New(cfg Config) *Schedule {
	if cfg.Straggler.Factor == 0 {
		cfg.Straggler.Factor = 3.0
	}
	return &Schedule{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		oomRng: rand.New(rand.NewSource(cfg.Seed ^ 0x6f6f6d)), // "oom"
	}
}

// Arm schedules the timed faults on the clock: engine outages flip the
// service OFF in env, node crashes call cluster.FailNode. Arm is idempotent
// and tolerates nil env/cluster (the corresponding faults are skipped).
func (s *Schedule) Arm(clock *vtime.Clock, env *engine.Environment, clus *cluster.Cluster) error {
	s.mu.Lock()
	if s.armed {
		s.mu.Unlock()
		return nil
	}
	s.armed = true
	outages := s.cfg.Outages
	crashes := s.cfg.NodeCrashes
	oomProb := s.cfg.OOM.Prob
	s.mu.Unlock()

	if clock == nil {
		return fmt.Errorf("faults: Arm requires a clock")
	}
	for _, o := range outages {
		if env == nil {
			continue
		}
		o := o
		clock.Schedule(o.At, func(now time.Duration) {
			env.SetAvailable(o.Engine, false)
			s.mu.Lock()
			s.stats.Outages++
			s.emitLocked(trace.Event{Type: trace.EvFaultOutage, Engine: o.Engine}, now)
			s.mu.Unlock()
		})
	}
	for _, nc := range crashes {
		if clus == nil {
			continue
		}
		nc := nc
		if err := clus.FailNode(nc.Node, nc.At); err != nil {
			return err
		}
		s.mu.Lock()
		s.stats.NodeCrash++
		s.mu.Unlock()
	}
	if oomProb > 0 && clus != nil {
		// The hook runs under the cluster lock and must not call back into
		// the cluster or emit events (the cluster emits fault.oomkill
		// itself); it only draws from the dedicated seeded stream.
		clus.SetOOMKiller(func(node string, overMB int) bool {
			s.oomMu.Lock()
			defer s.oomMu.Unlock()
			if s.oomRng.Float64() >= oomProb {
				return false
			}
			s.oomKills++
			return true
		})
	}
	return nil
}

// transientFor returns the transient process governing an engine.
func (s *Schedule) transientFor(engineName string) Transient {
	if t, ok := s.cfg.PerEngine[engineName]; ok {
		return t
	}
	return s.cfg.Default
}

// RunFault decides whether an operator attempt fails transiently. durSec is
// the attempt's predicted duration (feeds the MTBF exposure model); the
// returned error wraps ErrInjected so the executor classifies it as
// retryable. Draws are consumed in call order from the seeded stream, so a
// given seed yields one deterministic fault timeline per execution.
func (s *Schedule) RunFault(engineName, stepName string, attempt int, durSec float64, now time.Duration) error {
	t := s.transientFor(engineName)
	p := t.FailProb
	if t.MTBFSec > 0 && durSec > 0 {
		p = 1 - (1-p)*math.Exp(-durSec/t.MTBFSec)
	}
	if p <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng.Float64() >= p {
		return nil
	}
	s.stats.Transient++
	s.emitLocked(trace.Event{
		Type: trace.EvFaultTransient, Step: stepName, Engine: engineName, Attempt: attempt,
		Fields: map[string]float64{"prob": p},
	}, now)
	return fmt.Errorf("%w: %s on %s (attempt %d at %v)", ErrInjected, stepName, engineName, attempt, now)
}

// StretchFactor returns the straggler multiplier (>= 1) applied to an
// attempt's duration.
func (s *Schedule) StretchFactor(engineName, stepName string, now time.Duration) float64 {
	st := s.cfg.Straggler
	if st.Prob <= 0 || st.Factor <= 1 {
		return 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng.Float64() >= st.Prob {
		return 1
	}
	s.stats.Stragglers++
	s.emitLocked(trace.Event{
		Type: trace.EvFaultStraggler, Step: stepName, Engine: engineName,
		Fields: map[string]float64{"factor": st.Factor},
	}, now)
	return st.Factor
}

// Stats returns a snapshot of the injection counters.
func (s *Schedule) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	s.oomMu.Lock()
	st.OOMKills = s.oomKills
	s.oomMu.Unlock()
	return st
}
