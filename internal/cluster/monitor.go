package cluster

import (
	"sort"
	"sync"
	"time"

	"github.com/asap-project/ires/internal/engine"
)

// Monitor is the execution monitor of the IReS executor layer: it
// periodically runs the cluster health checks and polls engine service
// availability, keeping a status board the planner and executor consult
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
	cbSeq      int
	onChange   []monitorCB
}

// PollStats counts completed polls by outcome.
type PollStats struct {
	// Idle polls found no node version, no environment generation moved and
	// no health script armed: nothing was re-read.
	Idle int
	// Refreshed polls re-read at least one node or the engine list and found
	// every status as it was; Changed polls found one that differed.
	Refreshed int
	Changed   int
}

// unseen is the version no node or environment ever reaches: the first poll
// finds everything new.
const unseen = ^uint64(0)

type monitorCB struct {
	id int
	fn func()
}

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

// OnChange registers a callback fired (synchronously, during Poll) whenever
// a node or service changes status. Multiple callbacks may be registered;
// they fire in registration order. The returned function deregisters the
// callback — per-run executors subscribe for the duration of one Execute,
// so a long-lived scheduler does not accumulate dead subscriptions. Removal
// is effective immediately, even from inside another callback of the same
// poll: Poll re-checks each subscription's liveness right before invoking
// it, so a callback removed mid-round never fires again.
func (m *Monitor) OnChange(fn func()) (remove func()) {
	if fn == nil {
		return func() {}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cbSeq++
	id := m.cbSeq
	m.onChange = append(m.onChange, monitorCB{id: id, fn: fn})
	return func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, cb := range m.onChange {
			if cb.id == id {
				m.onChange = append(m.onChange[:i], m.onChange[i+1:]...)
				return
			}
		}
	}
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
// changed. Node status is read from the cluster's node records.
//
// A round costs what changed, not what exists: a node's health is re-read
// only when its version moved since the last read, the engine list only
// when the environment's generation did. A health script may read anything,
// so while one is armed every node is re-read.
//
// Lock order: m.mu, then the cluster's lock, which is held across the node
// sweep so that every version and health flag read belong together.
func (m *Monitor) Poll() bool {
	scripted := m.cluster.RunHealthChecks()

	m.mu.Lock()
	changed, refreshed := false, false
	m.cluster.mu.Lock()
	for i, n := range m.nodes {
		if n.version == m.seen[i] && !scripted {
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
	var cbs []monitorCB
	switch {
	case changed:
		m.polls.Changed++
		cbs = append(cbs, m.onChange...)
	case refreshed:
		m.polls.Refreshed++
	default:
		m.polls.Idle++
	}
	m.mu.Unlock()

	m.fire(cbs)
	return changed
}

// fire invokes the snapshot of subscriptions a changed poll took. A callback
// may deregister others (an executor finishing tears its subscription down
// from inside a peer's notification), so each one's liveness is re-checked
// under the lock immediately before it fires instead of trusting the
// snapshot.
func (m *Monitor) fire(cbs []monitorCB) {
	for _, cb := range cbs {
		m.mu.Lock()
		alive := false
		for _, live := range m.onChange {
			if live.id == cb.id {
				alive = true
				break
			}
		}
		m.mu.Unlock()
		if alive {
			cb.fn()
		}
	}
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
