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
	// cluster.New) and board[i] the health nodes[i] showed at the last poll
	// (false before the first, so that poll finds every healthy node new);
	// envGen is the environment's generation at the last engine sweep.
	nodes  []*Node
	board  []bool
	envGen uint64

	services map[string]bool
	started  bool
	polls    PollStats
}

// PollStats counts completed polls by outcome.
type PollStats struct {
	// Idle polls found every node health flag as the board shows it and no
	// engine status moved; Changed polls found one that differed.
	Idle    int
	Changed int
}

// NewMonitor builds a monitor over the cluster and engine environment,
// polling with the given virtual-time period.
func NewMonitor(c *Cluster, env *engine.Environment, period time.Duration) *Monitor {
	nodes := c.Nodes()
	return &Monitor{
		cluster:  c,
		env:      env,
		period:   period,
		nodes:    nodes,
		board:    make([]bool, len(nodes)),
		envGen:   ^uint64(0), // no generation the environment reaches: the first poll sweeps
		services: make(map[string]bool),
	}
}

// Start polls once, then every period on the cluster's virtual clock: one
// clock event, re-armed after each poll. It is idempotent.
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
	clock.Every(m.period, func(time.Duration) { m.Poll() })
}

// Poll runs one monitoring round immediately and returns whether any status
// changed. Node status is read from the cluster's node records. A changed
// round interrupts the cluster's clock: every run parked in the future wakes
// now and sweeps its attempts for lost containers.
//
// A round compares each node's health flag with the board and re-reads the
// engine list only when the environment's generation moved.
//
// Lock order: m.mu, then the cluster's lock, which is held across the node
// sweep so that every health flag read belongs to one moment.
func (m *Monitor) Poll() bool {
	m.mu.Lock()
	changed := false
	m.cluster.mu.Lock()
	for i, n := range m.nodes {
		if n.healthy != m.board[i] {
			m.board[i] = n.healthy
			changed = true
		}
	}
	m.cluster.mu.Unlock()
	if m.env != nil {
		if gen := m.env.Gen(); gen != m.envGen {
			m.envGen = gen
			for _, name := range m.env.Engines() {
				on := m.env.Available(name)
				if prev, seen := m.services[name]; !seen || prev != on {
					changed = true
				}
				m.services[name] = on
			}
		}
	}
	if changed {
		m.polls.Changed++
	} else {
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
	for i, n := range m.nodes {
		if n.Name == name {
			return m.board[i]
		}
	}
	return false
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
	return p.Idle + p.Changed
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
