package cluster

import (
	"github.com/asap-project/ires/internal/agent"
	"github.com/asap-project/ires/internal/trace"
)

// This file is the reconciler half of the node-agent split: the control
// plane's round that reads every agent's published report, detects drift and
// death, and converges the desired view (Node fields, live containers,
// checkpoint metadata) with each agent's actual truth.
//
// Every control-plane path mutates the two views together, so a reconcile
// round over a quiescent cluster observes nothing and emits nothing — which
// is what keeps the golden traces of scenarios that never reconcile
// byte-identical. Divergence enters only when an agent changes on its own: a
// daemon marking itself unhealthy (or healthy again), a container dying
// unseen, a replica copy nobody listed.

// ReconcileStats summarizes one reconcile round.
type ReconcileStats struct {
	// Agents is the number of agents examined (= cluster size).
	Agents int
	// Deaths counts crashes the round detected (incarnation advance or health
	// collapse); Restores counts nodes whose belief returned to healthy.
	Deaths   int
	Restores int
	// Lost is the number of desired containers invalidated by detected
	// deaths; Fenced counts zombie containers killed on agents that kept
	// running them past a death declaration.
	Lost   int
	Fenced int
}

// Reconcile runs one reconciliation round: it reads every agent's report
// header in stable node order and converges the desired state with it —
// detecting deaths and rebirths the control plane was not told about,
// restoring belief in recovered nodes, and fencing zombie containers that
// outlived a death declaration. Events are emitted after the lock is
// released, in node order.
//
// An agent whose published-report version stands where the last round left
// it, and whose health the control plane believes, costs that one header:
// the last round closed on this very state, so there is no news, no death,
// no rebirth and nothing to fence.
func (c *Cluster) Reconcile() ReconcileStats {
	var stats ReconcileStats
	var events []trace.Event

	c.mu.Lock()
	for _, name := range c.order {
		n := c.nodes[name]
		stats.Agents++
		rep := n.ag.Header()

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
		// is a death the control plane was not told about. Either way the
		// desired containers and replicas of the old life are gone.
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

		// Belief alignment: a healthy report on a believed-dead node is a
		// recovery (rebirth after a detected crash, or the daemon marking
		// itself healthy again).
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

// AgentReports returns every agent's published report in stable node order —
// the heartbeat view the HTTP API reads.
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
// exactly one of the two views. Zero at every quiescent point; the
// convergence storm tests assert exactly that.
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
		for _, p := range n.ag.Placements() {
			if ctr, ok := c.live[p.ID]; !ok || ctr.NodeName != name {
				diff++
			}
		}
	}
	return diff
}

// DeathsDetected returns the cumulative number of node deaths detected by
// reconciliation (as opposed to announced synchronously by FailNode).
func (c *Cluster) DeathsDetected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deathDetected
}
