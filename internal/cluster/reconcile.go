package cluster

import (
	"fmt"
	"time"

	"github.com/asap-project/ires/internal/agent"
	"github.com/asap-project/ires/internal/trace"
)

// This file is the reconciler half of the node-agent split: the control
// plane's periodic loop that reads every agent's published report, detects
// drift and death, and converges the desired view (Node fields, live
// containers, checkpoint metadata) with each agent's actual truth.
//
// On every legacy path the two views mutate in lockstep, so a reconcile
// round over a quiescent, partition-free cluster observes nothing and emits
// nothing — which is what keeps the golden traces of scenarios that never
// reconcile byte-identical. Divergence enters only through partitions:
// reports freeze while truth keeps moving, deaths become silent, and the
// reconciler is what notices afterwards.

// ReconcileStats summarizes one reconcile round.
type ReconcileStats struct {
	// Agents is the number of agents examined (= cluster size).
	Agents int
	// Fresh counts agents whose report was current; Stale counts reports
	// frozen behind a partition and tolerated as-is.
	Fresh int
	Stale int
	// Deaths counts crashes the round detected (incarnation advance, health
	// collapse, or the staleness bound tripping); Restores counts nodes
	// whose belief returned to healthy.
	Deaths   int
	Restores int
	// Lost is the number of desired containers invalidated by detected
	// deaths; Fenced counts zombie containers killed on agents that
	// outlived a unilateral death declaration.
	Lost   int
	Fenced int
}

// PartitionNode cuts the node's report channel: the agent's published
// report freezes at its current truth (Stale=true) while the actual state
// keeps moving. Legacy mutation paths still reach the agent — a partition
// models lost observability, not a fenced machine — so only failures and
// restores played through the partition create real drift.
func (c *Cluster) PartitionNode(name string) error {
	var now time.Duration
	if c.clock != nil {
		now = c.clock.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	if !n.ag.Partitioned() {
		n.ag.Partition()
		c.partitionedAt[name] = now
	}
	return nil
}

// HealPartition restores the node's report channel; the next Reconcile
// observes a fresh report and converges whatever happened behind the
// partition. Healing an unpartitioned node is a no-op.
func (c *Cluster) HealPartition(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	n.ag.Heal()
	delete(c.partitionedAt, name)
	return nil
}

// SetMaxStaleness arms the reconciler's unilateral death bound: a node
// whose reports have been stale for at least d is declared dead — desired
// containers invalidated, checkpoint replicas dropped — without waiting for
// the heal. Zero (the default) disables the bound: stale nodes are
// tolerated indefinitely. If the agent actually survived, the declaration
// is corrected after the heal (belief restored, zombie containers fenced).
func (c *Cluster) SetMaxStaleness(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxStaleness = d
}

// Reconcile runs one reconciliation round: it reads every agent's report
// header in stable node order, tolerates stale ones (emitting agent.drift,
// and applying the MaxStaleness death bound when armed), and converges the
// desired state with every fresh report — detecting deaths and rebirths
// that happened behind a partition, restoring belief in recovered nodes,
// and fencing zombie containers that survived a premature death
// declaration. Events are emitted after the lock is released, in node
// order.
//
// A fresh agent whose published-report version stands where the last round
// left it, and whose health the control plane believes, costs that one
// header: the last round closed on this very state, so there is no news, no
// death, no rebirth and nothing to fence.
func (c *Cluster) Reconcile() ReconcileStats {
	var now time.Duration
	if c.clock != nil {
		now = c.clock.Now()
	}
	var stats ReconcileStats
	var events []trace.Event

	c.mu.Lock()
	for _, name := range c.order {
		n := c.nodes[name]
		stats.Agents++
		rep := n.ag.Header()

		if rep.Stale {
			stats.Stale++
			c.driftObserved++
			staleFor := time.Duration(0)
			if t0, ok := c.partitionedAt[name]; ok && now > t0 {
				staleFor = now - t0
			}
			events = append(events, trace.Event{
				Type: trace.EvAgentDrift, Node: name,
				Fields: map[string]float64{"staleSec": staleFor.Seconds(), "seq": float64(rep.Seq)},
			})
			if c.maxStaleness > 0 && n.healthy && staleFor >= c.maxStaleness {
				// Too stale to trust: declare the node dead unilaterally. If
				// the agent is in fact alive, the post-heal round restores
				// belief and fences the zombies.
				lost, lostCkpts := c.detectCrashLocked(n)
				stats.Deaths++
				stats.Lost += lost
				c.deathDetected++
				events = append(events, trace.Event{
					Type: trace.EvNodeCrash, Node: name,
					Fields: map[string]float64{
						"containersLost": float64(lost),
						"detected":       1,
						"staleSec":       staleFor.Seconds(),
					},
				})
				for _, key := range lostCkpts {
					events = append(events, trace.Event{Type: trace.EvCheckpointLost, Step: key, Node: name})
				}
			}
			continue
		}

		stats.Fresh++
		if rep.Version == n.lastVersion && rep.Healthy == n.healthy {
			continue
		}
		if rep.Seq != n.lastSeq || rep.Incarnation != n.lastIncarnation {
			events = append(events, trace.Event{
				Type: trace.EvAgentReport, Node: name,
				Fields: map[string]float64{
					"seq":         float64(rep.Seq),
					"incarnation": float64(rep.Incarnation),
					"usedCores":   float64(rep.UsedCores),
					"usedMemMB":   float64(rep.UsedMemMB),
					"containers":  float64(rep.Containers),
				},
			})
		}

		// Death detection: an incarnation advance means the agent died and
		// was reborn unseen; a health collapse under an unchanged incarnation
		// is a silent death not yet restored. Either way the desired
		// containers and replicas of the old life are gone.
		if rep.Incarnation != n.lastIncarnation || (!rep.Healthy && n.healthy) {
			lost, lostCkpts := c.detectCrashLocked(n)
			stats.Deaths++
			stats.Lost += lost
			c.deathDetected++
			events = append(events, trace.Event{
				Type: trace.EvNodeCrash, Node: name,
				Fields: map[string]float64{"containersLost": float64(lost), "detected": 1},
			})
			for _, key := range lostCkpts {
				events = append(events, trace.Event{Type: trace.EvCheckpointLost, Step: key, Node: name})
			}
		}

		// Belief alignment: a fresh healthy report on a believed-dead node is
		// a recovery (rebirth after a detected crash, or the node outliving a
		// premature declaration).
		if rep.Healthy && !n.healthy {
			c.setHealthLocked(n, true)
			stats.Restores++
			events = append(events, trace.Event{
				Type: trace.EvNodeRestore, Node: name,
				Fields: map[string]float64{"detected": 1},
			})
		}

		stats.Fenced += c.fenceLocked(n)

		// Mark the report observed (post-fencing, so fencing's own seq bumps
		// do not read as news next round).
		end := n.ag.Header()
		n.lastSeq, n.lastIncarnation, n.lastVersion = end.Seq, end.Incarnation, end.Version
	}
	c.mu.Unlock()

	for _, ev := range events {
		c.emit(ev)
	}
	return stats
}

// StartReconciler schedules Reconcile on the cluster's virtual clock every
// period, starting one period from now. Idempotent; a nil clock or
// non-positive period disables it.
func (c *Cluster) StartReconciler(period time.Duration) {
	c.mu.Lock()
	if c.reconcilerOn || c.clock == nil || period <= 0 {
		c.mu.Unlock()
		return
	}
	c.reconcilerOn = true
	clock := c.clock
	c.mu.Unlock()
	var tick func(time.Duration)
	tick = func(time.Duration) {
		c.Reconcile()
		clock.Schedule(clock.Now()+period, tick)
	}
	clock.Schedule(clock.Now()+period, tick)
}

// AgentReports returns every agent's published report in stable node order —
// the heartbeat view Monitor.Poll and the HTTP API read. Reports of
// partitioned nodes come back frozen with Stale set.
func (c *Cluster) AgentReports() []agent.Report {
	c.mu.Lock()
	agents := make([]*agent.Agent, len(c.order))
	for i, name := range c.order {
		agents[i] = c.nodes[name].ag
	}
	c.mu.Unlock()
	out := make([]agent.Report, len(agents))
	for i, a := range agents {
		out[i] = a.Report()
	}
	return out
}

// DesiredActualDiff counts the divergences between the control plane's
// desired view and the agents' live truth: one per node whose believed
// health differs from the agent's, plus one per container present in
// exactly one of the two views. Zero at every quiescent, partition-free
// point; the convergence storm tests assert exactly that.
func (c *Cluster) DesiredActualDiff() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	diff := 0
	for id, ctr := range c.live {
		if !c.nodes[ctr.NodeName].ag.Hosts(id) {
			diff++
		}
	}
	for _, name := range c.order {
		n := c.nodes[name]
		if n.ag.Healthy() != n.healthy {
			diff++
		}
		for _, p := range n.ag.Placements() { // live truth even behind a partition
			if ctr, ok := c.live[p.ID]; !ok || ctr.NodeName != name {
				diff++
			}
		}
	}
	return diff
}

// DriftObserved returns the cumulative number of stale reports reconcile
// rounds have tolerated.
func (c *Cluster) DriftObserved() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.driftObserved
}

// DeathsDetected returns the cumulative number of node deaths detected by
// reconciliation (as opposed to announced synchronously by FailNode).
func (c *Cluster) DeathsDetected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deathDetected
}
