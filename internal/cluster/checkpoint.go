package cluster

import "sort"

// ckptEntry is the stored progress of one checkpointable operator attempt.
// Non-durable checkpoints live on the local disks of the gang's nodes
// (replicated across the gang): they survive preemption and engine outages
// but die with their last replica node. Durable checkpoints are materialized
// to the shared store (HDFS-style) and survive any node crash.
type ckptEntry struct {
	algorithm string
	units     int // work units completed at the checkpoint
	total     int // total work units of the operator run
	durable   bool
	nodes     []string // replica nodes (sorted); empty for durable entries
}

// PutCheckpoint records checkpoint progress under key. Progress is
// monotonic: an entry for the same algorithm and total keeps the maximum
// units seen (a slow original finishing unit 3 cannot roll back a
// speculative copy that already banked unit 5). A different algorithm or
// total replaces the entry outright — stale progress from an abandoned
// implementation choice must not seed a different computation.
func (c *Cluster) PutCheckpoint(key, algorithm string, units, total int, nodes []string, durable bool) {
	if key == "" || units <= 0 || total <= 0 || units > total {
		return
	}
	replicas := append([]string(nil), nodes...)
	sort.Strings(replicas)
	if durable {
		replicas = nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.checkpoints == nil {
		c.checkpoints = make(map[string]*ckptEntry)
	}
	if old, ok := c.checkpoints[key]; ok && old.algorithm == algorithm && old.total == total && old.units >= units {
		return
	}
	// The entry advances or is replaced: its replica set moves to the new
	// nodes, so the old hosts drop their local copies.
	c.checkpoints[key] = &ckptEntry{algorithm: algorithm, units: units, total: total, durable: durable, nodes: replicas}
}

// CheckpointProgress returns the banked units under key, or zero when no
// checkpoint exists or the stored one belongs to a different computation
// (algorithm or total mismatch).
func (c *Cluster) CheckpointProgress(key, algorithm string, total int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.checkpoints[key]
	if !ok || e.algorithm != algorithm || e.total != total {
		return 0
	}
	return e.units
}

// ClearCheckpoint drops the entry under key (the operator completed; its
// checkpoints are garbage) along with its replicas.
func (c *Cluster) ClearCheckpoint(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.checkpoints, key)
}

// Checkpoints returns the number of stored checkpoint entries.
func (c *Cluster) Checkpoints() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.checkpoints)
}

// dropCheckpointReplicasLocked removes a crashed node from every non-durable
// checkpoint's replica set, deleting entries whose last replica died. It
// returns the lost keys in sorted order; the caller emits the loss events
// after releasing c.mu.
func (c *Cluster) dropCheckpointReplicasLocked(node *Node) []string {
	var lost []string
	keys := make([]string, 0, len(c.checkpoints))
	for k := range c.checkpoints {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := c.checkpoints[k]
		if e.durable {
			continue
		}
		kept := e.nodes[:0]
		for _, n := range e.nodes {
			if n != node.Name {
				kept = append(kept, n)
			}
		}
		e.nodes = kept
		if len(e.nodes) == 0 {
			delete(c.checkpoints, k)
			lost = append(lost, k)
		}
	}
	return lost
}
