package cluster

import (
	"sort"
	"sync"
	"time"

	"github.com/asap-project/ires/internal/engine"
)

// Monitor is the execution monitor of the IReS executor layer: it
// periodically polls the node health flags (set by FailNode, RestoreNode
// and SetNodeHealth) together with engine service status, keeping a status
// board the planner and executor consult
// (unavailable engines are excluded from planning; failures during
// execution trigger replanning).
type Monitor struct {
	mu      sync.Mutex
	cluster *Cluster
	env     *engine.Environment
	period  time.Duration

	// nodes is the cluster's node list in stable order (nodes are fixed at
	// cluster.New); seen[i] is nodes[i]'s version at the last read of its
	// health and envGen the environment's generation at the last engine
	// sweep. A poll re-reads only what moved since.
	nodes  []*Node
	seen   []uint64
	envGen uint64

	nodeHealth map[string]bool
	services   map[string]bool
	started    bool
	polls      PollStats
}

// PollStats counts completed polls by outcome.
type PollStats struct {
	// Idle polls found no node version and no environment generation
	// moved: nothing was re-read.
	Idle int
	// Refreshed polls re-read at least one node or the engine list and found
	// every status as it was; Changed polls found one that differed.
	Refreshed int
	Changed   int
}

// unseen is the version no node or environment ever reaches: the first poll
// finds everything new.
const unseen = ^uint64(0)

// NewMonitor builds a monitor over the cluster and engine environment,
// polling with the given virtual-time period.
func NewMonitor(c *Cluster, env *engine.Environment, period time.Duration) *Monitor {
	m := &Monitor{
		cluster:    c,
		env:        env,
		period:     period,
		envGen:     unseen,
		nodeHealth: make(map[string]bool),
		services:   make(map[string]bool),
		nodes:      c.Nodes(),
	}
	for range m.nodes {
		m.seen = append(m.seen, unseen)
	}
	return m
}

// Start schedules periodic polls on the cluster's virtual clock. It is
// idempotent.
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	m.Poll()
	clock := m.cluster.Clock()
	if clock == nil {
		return
	}
	var tick func(time.Duration)
	tick = func(time.Duration) {
		m.Poll()
		clock.After(m.period, tick)
	}
	clock.After(m.period, tick)
}

// Poll runs one monitoring round immediately and returns whether any status
// changed. Node status is read from the cluster's node records. A changed
// round interrupts the cluster's clock: every run parked in the future wakes
// now and sweeps its attempts for lost containers.
//
// A round costs what changed, not what exists: a node's health is re-read
// only when its version moved since the last read, the engine list only
// when the environment's generation did.
//
// Lock order: m.mu, then the cluster's lock, which is held across the node
// sweep so that every version and health flag read belong together.
func (m *Monitor) Poll() bool {
	m.mu.Lock()
	changed, refreshed := false, false
	m.cluster.mu.Lock()
	for i, n := range m.nodes {
		if n.version == m.seen[i] {
			continue
		}
		m.seen[i] = n.version
		refreshed = true
		if prev, seen := m.nodeHealth[n.Name]; !seen || prev != n.healthy {
			changed = true
		}
		m.nodeHealth[n.Name] = n.healthy
	}
	m.cluster.mu.Unlock()
	if m.env != nil {
		if gen := m.env.Gen(); gen != m.envGen {
			m.envGen = gen
			refreshed = true
			for _, name := range m.env.Engines() {
				on := m.env.Available(name)
				if prev, seen := m.services[name]; !seen || prev != on {
					changed = true
				}
				m.services[name] = on
			}
		}
	}
	switch {
	case changed:
		m.polls.Changed++
	case refreshed:
		m.polls.Refreshed++
	default:
		m.polls.Idle++
	}
	m.mu.Unlock()

	if clock := m.cluster.Clock(); changed && clock != nil {
		clock.Interrupt()
	}
	return changed
}

// NodeHealthy returns the last observed health of a node (false when never
// observed).
func (m *Monitor) NodeHealthy(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nodeHealth[name]
}

// ServiceOn returns the last observed availability of an engine service.
func (m *Monitor) ServiceOn(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.services[name]
}

// AvailableEngines lists engines last observed ON, sorted by name (map
// iteration order would otherwise make the listing nondeterministic).
func (m *Monitor) AvailableEngines() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for name, on := range m.services {
		if on {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Ticks reports the number of completed polls.
func (m *Monitor) Ticks() int {
	p := m.PollStats()
	return p.Idle + p.Refreshed + p.Changed
}

// PollStats returns the completed polls by outcome; they sum to Ticks.
func (m *Monitor) PollStats() PollStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.polls
}

// Changes reports the number of polls that found a status changed. A run
// that records it can tell whether the health board moved since.
func (m *Monitor) Changes() int {
	return m.PollStats().Changed
}
