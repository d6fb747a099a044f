// Package agent implements the per-node actor of the cluster layer: each
// simulated machine owns its local truth — hosted containers, resource
// usage, health, and the checkpoint replicas on its local disk — behind a
// small message API (Place/Kill/Report). The cluster's control plane holds
// the *desired* state (reservations, leases, demanded containers) and
// drives agents toward it; the agent never calls back up, so the lock order
// is always control-plane lock → agent lock.
//
// Agents are synchronous deterministic actors, not goroutines: every
// message is a method call under the agent's own mutex, and all mutation is
// driven by the control plane on the shared virtual clock, so fixed-seed
// scenarios stay byte-identical.
package agent

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrAgentDown rejects a placement on a dead (failed, not yet restored)
// agent. The control plane treats the node as unusable and picks another.
var ErrAgentDown = errors.New("agent: node down")

// ErrOverCommitted rejects a placement that would exceed the node's core
// capacity. Cores are never oversubscribed; memory admission is the control
// plane's job (overcommit is a policy, and the OOM model lives above the
// agent), so the agent only tracks memory usage.
var ErrOverCommitted = errors.New("agent: placement exceeds core capacity")

// ErrDuplicateContainer rejects a placement whose container id the agent
// already hosts.
var ErrDuplicateContainer = errors.New("agent: duplicate container id")

// Placement is one container installed on an agent: the agent-side record
// of a granted lease. ResID names the control-plane reservation it was
// allocated under (0 = unreserved pool) and is opaque to the agent.
type Placement struct {
	ID    int
	Cores int
	MemMB int
	ResID int
}

// Report is the agent's published view of its local truth — what a
// heartbeat would carry.
type Report struct {
	Node string
	// Incarnation counts agent rebirths: it bumps on Restore, so a
	// reconciler can tell "the node I knew" from "a fresh daemon that lost
	// everything" even when both report healthy.
	Incarnation int
	// Seq bumps on every local mutation; a reconciler uses it to detect
	// news without diffing full reports.
	Seq        int64
	Healthy    bool
	UsedCores  int
	UsedMemMB  int
	Containers []int // hosted container ids, sorted
	// Replicas lists the checkpoint keys replicated on this node's local
	// disk, sorted.
	Replicas []string
}

// Header is the slice-free part of a Report — everything a reconcile round
// and its agent.report event read — with Containers as a count, plus the
// Version the report was published at. Reading it allocates nothing.
type Header struct {
	Incarnation int
	Seq         int64
	Healthy     bool
	UsedCores   int
	UsedMemMB   int
	Containers  int
	Version     uint64
}

// Agent is one node actor. It is safe for concurrent use; all methods are
// synchronous and deterministic.
type Agent struct {
	name  string
	cores int
	memMB int

	mu          sync.Mutex
	healthy     bool
	incarnation int
	seq         int64
	usedCores   int
	usedMemMB   int
	placements  map[int]Placement
	replicas    map[string]bool

	// version is the published-report version (see Version). Written under
	// mu, read without it.
	version atomic.Uint64
}

// New builds a healthy agent for a node of the given capacity.
func New(name string, cores, memMB int) *Agent {
	return &Agent{
		name:       name,
		cores:      cores,
		memMB:      memMB,
		healthy:    true,
		placements: make(map[int]Placement),
		replicas:   make(map[string]bool),
	}
}

// Version returns the published-report version: a counter that moves at
// every local mutation (each Seq bump), so whenever what Report returns
// could have changed. An observer that loads Version before reading Report
// and finds it unchanged on its next visit may keep the report it holds. One
// atomic load; no lock.
func (a *Agent) Version() uint64 { return a.version.Load() }

// mutatedLocked marks one local mutation: Seq and the published-report
// version move together; a.mu held.
func (a *Agent) mutatedLocked() {
	a.seq++
	a.version.Add(1)
}

// Name returns the node name the agent manages.
func (a *Agent) Name() string { return a.name }

// Cores returns the node's core capacity.
func (a *Agent) Cores() int { return a.cores }

// MemMB returns the node's physical memory capacity.
func (a *Agent) MemMB() int { return a.memMB }

// Place installs a container on the node. It fails on a dead agent, on a
// duplicate id, and when the placement would exceed core capacity; memory
// may exceed physical capacity (the control plane models overcommit and the
// OOM killer above the agent).
func (a *Agent) Place(p Placement) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.healthy {
		return fmt.Errorf("%w: %s", ErrAgentDown, a.name)
	}
	if _, ok := a.placements[p.ID]; ok {
		return fmt.Errorf("%w: %d on %s", ErrDuplicateContainer, p.ID, a.name)
	}
	if a.usedCores+p.Cores > a.cores {
		return fmt.Errorf("%w: %d+%d of %d cores on %s", ErrOverCommitted, a.usedCores, p.Cores, a.cores, a.name)
	}
	a.placements[p.ID] = p
	a.usedCores += p.Cores
	a.usedMemMB += p.MemMB
	a.mutatedLocked()
	return nil
}

// Kill removes a container from the node, returning its placement record.
// Killing an unknown id is a safe no-op (the container may have died with a
// previous incarnation).
func (a *Agent) Kill(id int) (Placement, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.placements[id]
	if !ok {
		return Placement{}, false
	}
	delete(a.placements, id)
	a.usedCores -= p.Cores
	a.usedMemMB -= p.MemMB
	a.mutatedLocked()
	return p, true
}

// Hosts reports whether the agent currently hosts the container.
func (a *Agent) Hosts(id int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.placements[id]
	return ok
}

// Placements returns the hosted placements sorted by container id.
func (a *Agent) Placements() []Placement {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.placementsLocked()
}

func (a *Agent) placementsLocked() []Placement {
	out := make([]Placement, 0, len(a.placements))
	for _, p := range a.placements {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AddReplica records a checkpoint replica on the node's local disk.
func (a *Agent) AddReplica(key string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.replicas[key] {
		a.replicas[key] = true
		a.mutatedLocked()
	}
}

// DropReplica removes a checkpoint replica (the entry was cleared or
// superseded). Unknown keys are a safe no-op.
func (a *Agent) DropReplica(key string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.replicas[key] {
		delete(a.replicas, key)
		a.mutatedLocked()
	}
}

// HasReplica reports whether the node's local disk holds a replica of the
// checkpoint.
func (a *Agent) HasReplica(key string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.replicas[key]
}

// Replicas returns the checkpoint keys on the node's local disk, sorted.
func (a *Agent) Replicas() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := make([]string, 0, len(a.replicas))
	for k := range a.replicas {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Report publishes the agent's local truth.
func (a *Agent) Report() Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]int, 0, len(a.placements))
	for id := range a.placements {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	keys := make([]string, 0, len(a.replicas))
	for k := range a.replicas {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return Report{
		Node:        a.name,
		Incarnation: a.incarnation,
		Seq:         a.seq,
		Healthy:     a.healthy,
		UsedCores:   a.usedCores,
		UsedMemMB:   a.usedMemMB,
		Containers:  ids,
		Replicas:    keys,
	}
}

// Header publishes the slice-free header of what Report would return right
// now without building the report.
func (a *Agent) Header() Header {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Header{
		Incarnation: a.incarnation, Seq: a.seq, Healthy: a.healthy,
		UsedCores: a.usedCores, UsedMemMB: a.usedMemMB, Containers: len(a.placements),
		Version: a.version.Load(),
	}
}

// Healthy reports the agent's health.
func (a *Agent) Healthy() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.healthy
}

// SetHealthy flips the agent's health flag without dropping state: the
// node-manager daemon marking itself UNHEALTHY after a failed probe, not a
// crash. Containers keep running (YARN semantics: an unhealthy node
// finishes its work but takes no new containers).
func (a *Agent) SetHealthy(healthy bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.healthy != healthy {
		a.healthy = healthy
		a.mutatedLocked()
	}
}

// Fail is agent death: the machine is gone, every hosted container and
// local checkpoint replica with it. It returns the dropped placements
// (sorted by id) and replica keys (sorted) so the control plane can
// invalidate the matching desired state. Failing a dead agent is a no-op.
func (a *Agent) Fail() (dropped []Placement, lostReplicas []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.healthy && len(a.placements) == 0 && len(a.replicas) == 0 {
		return nil, nil
	}
	dropped = a.placementsLocked()
	for k := range a.replicas {
		lostReplicas = append(lostReplicas, k)
	}
	sort.Strings(lostReplicas)
	a.placements = make(map[int]Placement)
	a.replicas = make(map[string]bool)
	a.usedCores, a.usedMemMB = 0, 0
	a.healthy = false
	a.mutatedLocked()
	return dropped, lostReplicas
}

// Restore is agent rebirth after a crash: a fresh daemon on repaired
// hardware, healthy, hosting nothing, with a bumped incarnation.
func (a *Agent) Restore() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.healthy = true
	a.incarnation++
	a.mutatedLocked()
}

// Incarnation returns the agent's current incarnation number.
func (a *Agent) Incarnation() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.incarnation
}
