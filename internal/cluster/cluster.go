// Package cluster simulates the YARN-managed multi-engine cloud IReS
// enforces plans on: nodes with core/memory capacity, container-level
// allocation, and the two health mechanisms of D3.3 §2.3 — per-node health
// flags (HEALTHY/UNHEALTHY, set by FailNode, RestoreNode and
// SetNodeHealth) and per-service availability (ON/OFF, tracked by
// engine.Environment); the Monitor here polls both.
//
// Each Node is the one record of its machine: health, the usage of its live
// containers and, through the checkpoint store, the replicas on its disk.
// Every change to it is made under the cluster lock, in the same critical
// section as the bookkeeping that depends on it.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/vtime"
)

// ErrInsufficientResources indicates no healthy node can host the requested
// container(s).
var ErrInsufficientResources = errors.New("cluster: insufficient resources")

// ErrUnknownNode indicates a node name not present in the cluster.
var ErrUnknownNode = errors.New("cluster: unknown node")

// Reservation-misuse sentinels. Elastic-lease operations handed a lease in
// the wrong state fail with one of these typed errors so callers (the
// executor's retry classification above all) branch with errors.Is instead
// of matching message substrings.
var (
	// ErrNilReservation rejects an elastic operation on a nil lease.
	ErrNilReservation = errors.New("cluster: nil reservation")
	// ErrReleasedReservation rejects an operation on a revoked lease.
	ErrReleasedReservation = errors.New("cluster: released reservation")
	// ErrForeignReservation rejects a lease handed to a cluster that did
	// not issue it.
	ErrForeignReservation = errors.New("cluster: reservation belongs to a different cluster")
)

// Node is one machine of the simulated cluster. The exported fields are
// fixed at New; the private ones are guarded by the cluster's lock, so a
// caller outside it reads them through Snapshot.
type Node struct {
	Name  string
	Cores int
	MemMB int

	healthy   bool
	usedCores int
	usedMemMB int
	// sliceCores/sliceMemMB sum the per-node (cores, memMB) slices granted
	// to leases on this node, and sliceRefs counts those leases. The sums
	// are bounded by Cores and by MemMB times the cluster's memory-overcommit
	// ratio, which is what makes admission quotas impossible to
	// oversubscribe — and what makes a lease that fills the node exclusive:
	// every slice needs at least one core, so nothing fits beside it.
	sliceCores int
	sliceMemMB int
	sliceRefs  int
}

// FreeCores returns the node's unallocated cores.
func (n *Node) FreeCores() int { return n.Cores - n.usedCores }

// FreeMemMB returns the node's unallocated memory.
func (n *Node) FreeMemMB() int { return n.MemMB - n.usedMemMB }

// Healthy reports the node's last health verdict.
func (n *Node) Healthy() bool { return n.healthy }

// Container is a granted resource lease on one node.
type Container struct {
	ID       int
	NodeName string
	Cores    int
	MemMB    int

	// resID records the reservation the container was allocated under
	// (0 when allocated from the unreserved pool).
	resID int

	released bool
	lost     atomic.Bool
}

// Lost reports whether the container was invalidated by a node failure.
// Lost containers no longer hold resources; the work running in them is
// gone and must be retried elsewhere.
func (ctr *Container) Lost() bool { return ctr.lost.Load() }

// Cluster is the simulated resource manager. It is safe for concurrent use.
type Cluster struct {
	mu     sync.Mutex
	nodes  map[string]*Node
	order  []string
	clock  *vtime.Clock
	nextID int
	live   map[int]*Container // outstanding (non-released) containers by ID

	nextResID    int
	reservations map[int]*Reservation // outstanding node leases by ID

	// freeHealthy is the scheduling-counter hot path: the number of healthy
	// nodes carrying no lease, maintained as deltas at every reserve/release/
	// grow/shrink/revoke/fail/restore boundary so UnreservedHealthy is O(1)
	// per call instead of an O(nodes) map scan. CheckInvariants recounts it
	// from scratch and fails on drift.
	freeHealthy int

	// memOvercommit scales each node's allocatable memory past its physical
	// MemMB (1.0 = disabled). Cores are never overcommitted. When actual
	// container usage on a node exceeds *physical* memory after an
	// allocation, the oomKiller hook (if armed) decides whether the kernel
	// OOM killer fires; victims are invalidated exactly like containers on
	// a crashed node. The hook is called under c.mu and must not call back
	// into the cluster or emit trace events.
	memOvercommit float64
	oomKiller     func(node string, overMB int) bool

	// checkpoints stores sub-operator checkpoint progress by key (see
	// checkpoint.go); non-durable entries die with their replica nodes.
	checkpoints map[string]*ckptEntry

	// tracer receives node crash/restore events; nil discards them.
	tracer trace.Tracer
}

// SetTracer installs the event sink for node crash/restore events.
func (c *Cluster) SetTracer(t trace.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = t
}

// emit stamps the current virtual time and forwards to the tracer. It must
// be called WITHOUT c.mu held: tracers may call back into the cluster (the
// test suite installs an invariant-checking tracer that does exactly that).
func (c *Cluster) emit(ev trace.Event) {
	c.mu.Lock()
	t := c.tracer
	clock := c.clock
	c.mu.Unlock()
	if t == nil {
		return
	}
	var now time.Duration
	if clock != nil {
		now = clock.Now()
	}
	t.Emit(ev.At(now))
}

// New builds a cluster of count identical nodes named node0..node<count-1>.
func New(clock *vtime.Clock, count, coresPerNode, memMBPerNode int) *Cluster {
	c := &Cluster{
		nodes:        make(map[string]*Node),
		clock:        clock,
		live:         make(map[int]*Container),
		reservations: make(map[int]*Reservation),
		checkpoints:  make(map[string]*ckptEntry),
	}
	for i := 0; i < count; i++ {
		name := fmt.Sprintf("node%d", i)
		c.nodes[name] = &Node{
			Name: name, Cores: coresPerNode, MemMB: memMBPerNode,
			healthy: true,
		}
		c.order = append(c.order, name)
	}
	c.freeHealthy = count
	return c
}

// SetMemOvercommit sets the memory-overcommit ratio: each node accepts
// slice grants and container allocations up to MemMB*ratio, while cores
// stay bounded by physical capacity. Actual usage past *physical* MemMB
// triggers the OOM-killer hook (see SetOOMKiller). Ratios below 1 are
// rejected.
func (c *Cluster) SetMemOvercommit(ratio float64) error {
	if ratio < 1 {
		return fmt.Errorf("cluster: invalid memory overcommit ratio %.2f (want >= 1)", ratio)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memOvercommit = ratio
	return nil
}

// SetOOMKiller installs the oversubscription fault hook: after an
// allocation pushes a node's actual memory usage past physical capacity,
// the hook is consulted once per candidate kill with the node name and the
// overage in MB; returning true kills the node's largest live container
// (ties broken toward the newest). The hook runs under the cluster lock —
// it must be fast, deterministic, and must not call back into the cluster
// or emit trace events (the cluster emits fault.oomkill itself, outside
// its lock). A nil hook disables OOM kills: oversubscribed usage is then
// tolerated silently.
func (c *Cluster) SetOOMKiller(fn func(node string, overMB int) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.oomKiller = fn
}

// memCapLocked returns the node's allocatable memory ceiling under the
// current overcommit ratio; c.mu held.
func (c *Cluster) memCapLocked(n *Node) int {
	if c.memOvercommit <= 1 {
		return n.MemMB
	}
	return int(float64(n.MemMB)*c.memOvercommit + 0.5)
}

// setHealthLocked flips a node's health flag, keeping the freeHealthy
// counter consistent; c.mu held.
func (c *Cluster) setHealthLocked(n *Node, healthy bool) {
	if n.healthy == healthy {
		return
	}
	n.healthy = healthy
	if n.sliceRefs == 0 {
		if healthy {
			c.freeHealthy++
		} else {
			c.freeHealthy--
		}
	}
}

// addSliceLocked grants one (cores, memMB) slice on a node, maintaining
// the per-node sums, the slice refcount and freeHealthy (a node leaves the
// free pool when its first slice lands); c.mu held.
func (c *Cluster) addSliceLocked(n *Node, cores, memMB int) {
	if n.sliceRefs == 0 && n.healthy {
		c.freeHealthy--
	}
	n.sliceRefs++
	n.sliceCores += cores
	n.sliceMemMB += memMB
}

// removeSliceLocked returns one (cores, memMB) slice on a node to the
// pool, the inverse of addSliceLocked; c.mu held.
func (c *Cluster) removeSliceLocked(n *Node, cores, memMB int) {
	n.sliceRefs--
	n.sliceCores -= cores
	n.sliceMemMB -= memMB
	if n.sliceRefs == 0 && n.healthy {
		c.freeHealthy++
	}
}

// SetNodeHealth flips a node's health flag directly (failure injection).
func (c *Cluster) SetNodeHealth(name string, healthy bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	c.setHealthLocked(n, healthy)
	return nil
}

// FailNode schedules a node crash at absolute virtual time at (immediately
// when at is not in the future): the node is marked UNHEALTHY and every live
// container hosted on it is invalidated — its resources are freed and its
// Lost flag is raised so the executor fails the work that was running there
// instead of letting it complete impossibly. It returns ErrUnknownNode for
// unknown names; the crash itself happens asynchronously on the clock.
func (c *Cluster) FailNode(name string, at time.Duration) error {
	c.mu.Lock()
	_, ok := c.nodes[name]
	clock := c.clock
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	if clock == nil || at <= clock.Now() {
		c.failNodeNow(name)
		return nil
	}
	clock.Schedule(at, func(time.Duration) { c.failNodeNow(name) })
	return nil
}

// failNodeNow performs the crash: the node turns unhealthy, every live
// container on it is invalidated and it leaves every non-durable
// checkpoint's replica set. It returns the number of containers lost.
func (c *Cluster) failNodeNow(name string) int {
	c.mu.Lock()
	n, ok := c.nodes[name]
	if !ok {
		c.mu.Unlock()
		return 0
	}
	c.setHealthLocked(n, false)
	lost := 0
	for _, ctr := range c.live {
		if ctr.NodeName == name {
			c.loseContainerLocked(ctr)
			lost++
		}
	}
	lostCkpts := c.dropCheckpointReplicasLocked(n)
	c.mu.Unlock()
	c.emit(trace.Event{
		Type: trace.EvNodeCrash, Node: name,
		Fields: map[string]float64{"containersLost": float64(lost)},
	})
	for _, key := range lostCkpts {
		c.emit(trace.Event{Type: trace.EvCheckpointLost, Step: key, Node: name})
	}
	return lost
}

// loseContainerLocked invalidates a live container: its Lost flag is raised,
// its resources return and Release becomes a no-op; c.mu held.
func (c *Cluster) loseContainerLocked(ctr *Container) {
	ctr.lost.Store(true)
	c.releaseContainerLocked(ctr)
}

// RestoreNode brings a failed node back (repaired hardware rejoining the
// cluster): it turns healthy and its capacity becomes allocatable again.
// The restore is a health flip: after FailNode the node holds no container
// and no replica, and after SetNodeHealth(false) it keeps the containers and
// replicas it still lists.
func (c *Cluster) RestoreNode(name string) error {
	c.mu.Lock()
	n, ok := c.nodes[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	c.setHealthLocked(n, true)
	c.mu.Unlock()
	c.emit(trace.Event{Type: trace.EvNodeRestore, Node: name})
	return nil
}

// LiveContainers returns the number of outstanding (allocated, not released,
// not lost) containers.
func (c *Cluster) LiveContainers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.live)
}

// Nodes returns the cluster's nodes in stable order. Only the exported
// fields, fixed at New, may be read through these pointers without the
// cluster's lock; health and usage are read through Snapshot.
func (c *Cluster) Nodes() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Node, len(c.order))
	for i, name := range c.order {
		out[i] = c.nodes[name]
	}
	return out
}

// Snapshot returns a copy of every node in stable order, taken in one
// critical section: health and usage as they stood together at that moment.
func (c *Cluster) Snapshot() []Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Node, len(c.order))
	for i, name := range c.order {
		out[i] = *c.nodes[name]
	}
	return out
}

// Reconcile does nothing. Its one caller is the bench/e2e per-layer cell
// cluster.reconcile_us, which times it; the cluster keeps one record per
// node, so there is no second copy to converge. It goes with that cell.
func (c *Cluster) Reconcile() {}

// Reservation is an exclusive, elastic lease on cluster capacity — the
// admission currency of the multi-workflow scheduler. A run's executor
// allocates its containers only inside its reservation, so admitted runs can
// never starve each other of capacity (and the sum of reservations can never
// exceed the cluster, enforced structurally).
//
// Every lease has one shape: a uniform per-node (sliceCores, sliceMemMB)
// slice on each of its nodes. Several leases may share a node as long as
// their summed slices fit within Cores and MemMB*overcommit, and AllocateIn
// confines a lease's containers to its slice, tracked per node in the used
// ledger. ReserveSlices names the dimensions; Reserve asks for the slice
// that fills the node, which the same headroom arithmetic makes exclusive.
//
// Leases are elastic: GrowReservation adds nodes while the run executes,
// ShrinkReservation returns idle nodes to the pool (shrink-at-operator-
// boundary: only nodes with no live containers of the lease may leave),
// ResizeSlice regrows or shrinks the per-node slice dimensions
// independently, and RevokeReservation ends the lease entirely
// (preemption/voluntary release).
type Reservation struct {
	c     *Cluster
	id    int
	nodes []string // stable order; mutated only under c.mu
	// sliceCores/sliceMemMB are the uniform per-node slice dimensions.
	// Guarded by c.mu.
	sliceCores int
	sliceMemMB int
	// used ledgers, per node, the container resources currently allocated
	// under this lease: the O(1)-maintained counters AllocateIn checks slice
	// headroom against. CheckInvariants recomputes the ledger from the
	// live-container table and fails on drift.
	used map[string]*sliceUse
	// released marks the lease revoked; all accessors and elastic ops on a
	// released lease fail or return empty. Guarded by c.mu.
	released bool
}

// sliceUse is a reservation's per-node container-usage ledger entry.
type sliceUse struct {
	cores int
	memMB int
}

// usedOn returns what the lease's own containers hold on the node; c.mu
// held.
func (r *Reservation) usedOn(name string) (cores, memMB int) {
	if u := r.used[name]; u != nil {
		return u.cores, u.memMB
	}
	return 0, 0
}

// Nodes returns the reserved node names in stable order (nil once revoked).
// It takes the cluster lock: the node set of an elastic lease changes under
// Grow/Shrink, so an unlocked read could observe a half-applied resize.
func (r *Reservation) Nodes() []string {
	if r == nil {
		return nil
	}
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	if r.released {
		return nil
	}
	return append([]string(nil), r.nodes...)
}

// Size returns the number of reserved nodes (0 once revoked).
func (r *Reservation) Size() int {
	if r == nil {
		return 0
	}
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	if r.released {
		return 0
	}
	return len(r.nodes)
}

// Released reports whether the lease has been revoked.
func (r *Reservation) Released() bool {
	if r == nil {
		return true
	}
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	return r.released
}

// SliceDims returns the per-node (cores, memMB) slice dimensions of the
// lease; (0, 0) once revoked. A lease made by Reserve reports the node's
// cores and its memory ceiling under the overcommit ratio.
func (r *Reservation) SliceDims() (cores, memMB int) {
	if r == nil {
		return 0, 0
	}
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	if r.released {
		return 0, 0
	}
	return r.sliceCores, r.sliceMemMB
}

// Reserve leases n whole healthy nodes: the slice lease whose per-node
// dimensions are the node's cores and its memory ceiling under the
// overcommit ratio. Only a node carrying no lease has that much headroom,
// and since every slice needs at least one core nothing co-locates with the
// lease afterwards — unless ResizeSlice shrinks it. It returns
// ErrInsufficientResources when fewer than n such nodes exist; the
// reservation is atomic.
func (c *Cluster) Reserve(n int) (*Reservation, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: invalid reservation size %d", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.order) == 0 {
		return nil, fmt.Errorf("%w: want %d nodes, cluster has none", ErrInsufficientResources, n)
	}
	full := c.nodes[c.order[0]] // New builds identical nodes
	return c.reserveLocked(n, full.Cores, c.memCapLocked(full))
}

// ReserveSlices leases a uniform (coresPer, memPer) slice on each of n
// healthy nodes (first-fit in stable node order). A node qualifies when its
// remaining slice headroom — Cores minus granted slice cores,
// MemMB*overcommit minus granted slice memory — fits the requested slice,
// so several leases can share one node. The reservation is atomic: on
// ErrInsufficientResources nothing is granted.
func (c *Cluster) ReserveSlices(n, coresPer, memPer int) (*Reservation, error) {
	if n <= 0 || coresPer <= 0 || memPer <= 0 {
		return nil, fmt.Errorf("cluster: invalid slice reservation %dx(%dc,%dMB)", n, coresPer, memPer)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reserveLocked(n, coresPer, memPer)
}

// reserveLocked grants a new lease of n (coresPer, memPer) slices; c.mu
// held.
func (c *Cluster) reserveLocked(n, coresPer, memPer int) (*Reservation, error) {
	picked, err := c.pickSlicesLocked(n, coresPer, memPer, nil)
	if err != nil {
		return nil, err
	}
	c.nextResID++
	res := &Reservation{
		c: c, id: c.nextResID, nodes: picked,
		sliceCores: coresPer, sliceMemMB: memPer,
		used: make(map[string]*sliceUse, n),
	}
	for _, name := range picked {
		c.addSliceLocked(c.nodes[name], coresPer, memPer)
	}
	c.reservations[res.id] = res
	return res, nil
}

// sliceFitsLocked reports whether the node could host one more
// (coresPer, memPer) slice; c.mu held.
func (c *Cluster) sliceFitsLocked(n *Node, coresPer, memPer int) bool {
	return n.healthy && n.Cores-n.sliceCores >= coresPer && c.memCapLocked(n)-n.sliceMemMB >= memPer
}

// pickSlicesLocked returns the first n node names (stable order) that could
// host one more (coresPer, memPer) slice, excluding nodes in skip, or
// ErrInsufficientResources when fewer qualify; c.mu held.
func (c *Cluster) pickSlicesLocked(n, coresPer, memPer int, skip map[string]bool) ([]string, error) {
	var picked []string
	for _, name := range c.order {
		if skip[name] || !c.sliceFitsLocked(c.nodes[name], coresPer, memPer) {
			continue
		}
		picked = append(picked, name)
		if len(picked) == n {
			return picked, nil
		}
	}
	return nil, fmt.Errorf("%w: want %d nodes with a (%dc,%dMB) slice free, have %d",
		ErrInsufficientResources, n, coresPer, memPer, len(picked))
}

// SliceFit counts the nodes that could currently host one more
// (coresPer, memPer) slice — the slice analogue of UnreservedHealthy,
// used by policies to clamp slice admissions. O(nodes).
func (c *Cluster) SliceFit(coresPer, memPer int) int {
	if coresPer <= 0 || memPer <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fit := 0
	for _, n := range c.nodes {
		if c.sliceFitsLocked(n, coresPer, memPer) {
			fit++
		}
	}
	return fit
}

// liveLeaseLocked is the shared preamble of the elastic operations: it
// rejects a nil lease, one that belongs to a different cluster and one
// already revoked, naming the operation; c.mu held.
func (c *Cluster) liveLeaseLocked(r *Reservation, op string) error {
	switch {
	case r == nil:
		return fmt.Errorf("%w: %s", ErrNilReservation, op)
	case r.c != c:
		return fmt.Errorf("%w: %s of reservation %d", ErrForeignReservation, op, r.id)
	case r.released:
		return fmt.Errorf("%w: %s of reservation %d", ErrReleasedReservation, op, r.id)
	}
	return nil
}

// GrowReservation extends a live lease by n more nodes (first-fit in
// stable node order, like Reserve): one more (sliceCores, sliceMemMB) slice
// on each of n nodes with headroom the lease is not already on. The grow is
// atomic: on ErrInsufficientResources the lease is unchanged. It returns
// the names of the added nodes.
func (c *Cluster) GrowReservation(r *Reservation, n int) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.liveLeaseLocked(r, "grow"); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("cluster: invalid grow size %d", n)
	}
	held := make(map[string]bool, len(r.nodes)+n)
	for _, name := range r.nodes {
		held[name] = true
	}
	picked, err := c.pickSlicesLocked(n, r.sliceCores, r.sliceMemMB, held)
	if err != nil {
		return nil, err
	}
	for _, name := range picked {
		c.addSliceLocked(c.nodes[name], r.sliceCores, r.sliceMemMB)
		held[name] = true
	}
	// Rebuild the lease's node list in stable cluster order so Grow keeps
	// the same ordering discipline Reserve established.
	r.nodes = r.nodes[:0]
	for _, name := range c.order {
		if held[name] {
			r.nodes = append(r.nodes, name)
		}
	}
	return picked, nil
}

// ResizeSlice changes a lease's per-node dimensions to (coresPer, memPer),
// each dimension growing or shrinking independently on every node of the
// lease at once. Growing a dimension requires headroom on all the lease's
// nodes (atomic: on ErrInsufficientResources nothing changes); shrinking a
// dimension is bounded below by the lease's own container usage on each
// node, so running work is never squeezed out — the per-dimension form of
// shrink-at-operator-boundary semantics. In that case the call fails with
// ErrInsufficientResources and the caller retries at a quieter boundary.
// Shrinking a lease made by Reserve opens its nodes to other leases.
func (c *Cluster) ResizeSlice(r *Reservation, coresPer, memPer int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.liveLeaseLocked(r, "resize"); err != nil {
		return err
	}
	if coresPer <= 0 || memPer <= 0 {
		return fmt.Errorf("cluster: invalid slice dimensions (%dc,%dMB)", coresPer, memPer)
	}
	dCores, dMem := coresPer-r.sliceCores, memPer-r.sliceMemMB
	if dCores == 0 && dMem == 0 {
		return nil
	}
	// Validate every node first so the resize applies atomically.
	for _, name := range r.nodes {
		n, ok := c.nodes[name]
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownNode, name)
		}
		if dCores > 0 && n.Cores-n.sliceCores < dCores {
			return fmt.Errorf("%w: node %s has %d slice cores free, need %d",
				ErrInsufficientResources, name, n.Cores-n.sliceCores, dCores)
		}
		if dMem > 0 && c.memCapLocked(n)-n.sliceMemMB < dMem {
			return fmt.Errorf("%w: node %s has %d slice MB free, need %d",
				ErrInsufficientResources, name, c.memCapLocked(n)-n.sliceMemMB, dMem)
		}
		if uc, um := r.usedOn(name); uc > coresPer || um > memPer {
			return fmt.Errorf("%w: node %s runs (%dc,%dMB) of this lease, cannot shrink slice to (%dc,%dMB)",
				ErrInsufficientResources, name, uc, um, coresPer, memPer)
		}
	}
	for _, name := range r.nodes {
		n := c.nodes[name]
		n.sliceCores += dCores
		n.sliceMemMB += dMem
	}
	r.sliceCores, r.sliceMemMB = coresPer, memPer
	return nil
}

// ShrinkReservation releases leased nodes back to the pool until the lease
// holds target nodes, but only nodes hosting no live container of this lease
// may leave — the structural form of shrink-at-operator-boundary semantics:
// gang containers are freed between plan steps, so a shrink issued at a step
// boundary always finds its nodes idle, while a shrink racing running work
// simply keeps the busy nodes. Idle nodes are released from the end of the
// stable node order. It returns the names of the released nodes (possibly
// fewer than requested when busy nodes pin the lease above target).
func (c *Cluster) ShrinkReservation(r *Reservation, target int) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.liveLeaseLocked(r, "shrink"); err != nil {
		return nil, err
	}
	if target < 1 {
		return nil, fmt.Errorf("cluster: invalid shrink target %d", target)
	}
	var removed []string
	drop := make(map[string]bool)
	for i := len(r.nodes) - 1; i >= 0 && len(r.nodes)-len(removed) > target; i-- {
		name := r.nodes[i]
		if uc, um := r.usedOn(name); uc > 0 || um > 0 {
			continue // a live container of this lease pins the node
		}
		removed = append(removed, name)
		drop[name] = true
		c.removeSliceLocked(c.nodes[name], r.sliceCores, r.sliceMemMB)
		delete(r.used, name)
	}
	kept := r.nodes[:0]
	for _, name := range r.nodes {
		if !drop[name] {
			kept = append(kept, name)
		}
	}
	r.nodes = kept
	return removed, nil
}

// RevokeReservation ends a lease: every node returns to the unreserved pool
// and any containers still allocated under the lease are force-released (the
// count is returned — a cooperative preemption that drained at an operator
// boundary revokes with zero). Revoking twice is a safe no-op.
func (c *Cluster) RevokeReservation(r *Reservation) int {
	if r == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.released {
		return 0
	}
	dropped := 0
	for _, ctr := range c.live {
		if ctr.resID == r.id {
			c.releaseContainerLocked(ctr)
			dropped++
		}
	}
	c.releaseReservationLocked(r)
	return dropped
}

// releaseContainerLocked ends a live container: its resources return to
// its node and to its lease's per-node used ledger; c.mu held.
func (c *Cluster) releaseContainerLocked(ctr *Container) {
	ctr.released = true
	delete(c.live, ctr.ID)
	if n, ok := c.nodes[ctr.NodeName]; ok {
		n.usedCores -= ctr.Cores
		n.usedMemMB -= ctr.MemMB
	}
	if res, ok := c.reservations[ctr.resID]; ok {
		if u, ok := res.used[ctr.NodeName]; ok {
			u.cores -= ctr.Cores
			u.memMB -= ctr.MemMB
		}
	}
}

// ReleaseReservation returns the leased nodes to the unreserved pool.
// Releasing twice is a safe no-op (idempotent: the released flag and the
// reservation-table entry are cleared together under one critical section,
// so double-release in suspend paths cannot free another lease's nodes).
func (c *Cluster) ReleaseReservation(r *Reservation) {
	if r == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.released {
		return
	}
	c.releaseReservationLocked(r)
}

// releaseReservationLocked clears the lease under c.mu.
func (c *Cluster) releaseReservationLocked(r *Reservation) {
	r.released = true
	if _, ok := c.reservations[r.id]; !ok {
		return
	}
	delete(c.reservations, r.id)
	for _, name := range r.nodes {
		c.removeSliceLocked(c.nodes[name], r.sliceCores, r.sliceMemMB)
	}
}

// UnreservedHealthy counts the healthy nodes not held by any reservation —
// the pool admission policies draw quotas from. O(1): the counter is
// maintained as deltas at every reserve/release/health boundary.
func (c *Cluster) UnreservedHealthy() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.freeHealthy
}

// ReservedNodes counts the nodes currently carrying at least one lease,
// healthy or not, from the per-node slice refcounts.
func (c *Cluster) ReservedNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	reserved := 0
	for _, n := range c.nodes {
		if n.sliceRefs > 0 {
			reserved++
		}
	}
	return reserved
}

// ReservedSlices returns the cluster-wide totals of granted slice capacity
// per dimension (summed over every lease's nodes), from the per-node slice
// sums.
func (c *Cluster) ReservedSlices() (cores, memMB int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		cores += n.sliceCores
		memMB += n.sliceMemMB
	}
	return cores, memMB
}

// AllocateIn grants count containers of (cores, memMB) each. Allocation is
// atomic: either all containers are granted or none. Under a reservation r —
// the per-run allocation path of the multi-workflow scheduler — containers
// are confined to the lease's per-node (sliceCores, sliceMemMB) slice,
// tracked in the lease's used ledger. With r nil they are spread over the
// healthy unreserved nodes with a most-free-first policy (on a cluster with
// no reservations this is every healthy node — the single-workflow
// behaviour); nodes carrying a lease are not part of that pool, since their
// capacity is promised to its leases. OOM kills the grant caused are
// emitted after the lock is released (tracers may call back into the
// cluster).
func (c *Cluster) AllocateIn(r *Reservation, count, cores, memMB int) ([]*Container, error) {
	granted, kills, err := c.allocate(r, count, cores, memMB)
	for _, k := range kills {
		c.emit(trace.Event{
			Type: trace.EvOOMKill, Node: k.node,
			Fields: map[string]float64{
				"containerID": float64(k.containerID),
				"memMB":       float64(k.memMB),
				"overMB":      float64(k.overMB),
			},
		})
	}
	return granted, err
}

// oomKillInfo records one OOM-killed container for post-lock event
// emission.
type oomKillInfo struct {
	node        string
	containerID int
	memMB       int
	overMB      int
}

// allocate places containers on the healthy nodes the reservation allows
// (nil = the unreserved pool). Memory fit is judged against the node's
// overcommit ceiling; after a successful grant, any touched node whose
// actual usage exceeds *physical* memory consults the OOM-killer hook,
// which may invalidate the node's largest live container (newest on ties)
// until usage fits or the hook declines. Killed containers are returned to
// the caller as granted-but-lost — exactly like a container that died on a
// crashed node — so loss surfaces through the executor's ordinary sweep.
func (c *Cluster) allocate(r *Reservation, count, cores, memMB int) ([]*Container, []oomKillInfo, error) {
	if count <= 0 || cores <= 0 || memMB <= 0 {
		return nil, nil, fmt.Errorf("cluster: invalid request %dx(%dc,%dMB)", count, cores, memMB)
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	resID, candidates := 0, c.order
	if r != nil {
		if r.c != c {
			return nil, nil, fmt.Errorf("%w: allocation under reservation %d", ErrForeignReservation, r.id)
		}
		if r.released {
			return nil, nil, fmt.Errorf("%w: %w %d", ErrInsufficientResources, ErrReleasedReservation, r.id)
		}
		resID, candidates = r.id, r.nodes
	}

	var granted []*Container
	for i := 0; i < count; i++ {
		// Most-free node first, name as tiebreak for determinism. Under a
		// lease "free" means headroom left inside the lease's own slice; the
		// unreserved pool is every node that carries no lease.
		var best *Node
		var bestFree int
		for _, name := range candidates {
			n := c.nodes[name]
			if !n.healthy {
				continue
			}
			if n.usedCores+cores > n.Cores || n.usedMemMB+memMB > c.memCapLocked(n) {
				continue
			}
			free := n.FreeCores()
			if r == nil {
				if n.sliceRefs > 0 {
					continue
				}
			} else {
				uc, um := r.usedOn(name)
				if uc+cores > r.sliceCores || um+memMB > r.sliceMemMB {
					continue
				}
				free = r.sliceCores - uc
			}
			if best == nil || free > bestFree || (free == bestFree && n.Name < best.Name) {
				best, bestFree = n, free
			}
		}
		if best == nil {
			for _, ctr := range granted {
				c.releaseContainerLocked(ctr)
			}
			return nil, nil, fmt.Errorf("%w: want %dx(%dc,%dMB)", ErrInsufficientResources, count, cores, memMB)
		}
		best.usedCores += cores
		best.usedMemMB += memMB
		c.nextID++
		ctr := &Container{ID: c.nextID, NodeName: best.Name, Cores: cores, MemMB: memMB, resID: resID}
		if r != nil {
			u := r.used[best.Name]
			if u == nil {
				u = &sliceUse{}
				r.used[best.Name] = u
			}
			u.cores += cores
			u.memMB += memMB
		}
		c.live[ctr.ID] = ctr
		granted = append(granted, ctr)
	}
	return granted, c.oomSweepLocked(granted), nil
}

// oomSweepLocked checks the nodes touched by a successful grant for actual
// usage beyond physical memory and lets the OOM-killer hook invalidate
// victims; c.mu held. Returns the kills for post-lock event emission.
func (c *Cluster) oomSweepLocked(granted []*Container) []oomKillInfo {
	if c.oomKiller == nil {
		return nil
	}
	var kills []oomKillInfo
	seen := make(map[string]bool, len(granted))
	for _, ctr := range granted {
		if seen[ctr.NodeName] {
			continue
		}
		seen[ctr.NodeName] = true
		n, ok := c.nodes[ctr.NodeName]
		if !ok {
			continue
		}
		for n.usedMemMB > n.MemMB {
			over := n.usedMemMB - n.MemMB
			if !c.oomKiller(n.Name, over) {
				break
			}
			// The kernel heuristic in miniature: kill the biggest consumer,
			// preferring the newest on ties (the container that tipped the
			// node over is the likeliest victim).
			var victim *Container
			for _, cand := range c.live {
				if cand.NodeName != n.Name {
					continue
				}
				if victim == nil || cand.MemMB > victim.MemMB ||
					(cand.MemMB == victim.MemMB && cand.ID > victim.ID) {
					victim = cand
				}
			}
			if victim == nil {
				break
			}
			c.loseContainerLocked(victim)
			kills = append(kills, oomKillInfo{
				node: n.Name, containerID: victim.ID,
				memMB: victim.MemMB, overMB: over,
			})
		}
	}
	return kills
}

// Release returns a container's resources to its node. Releasing twice is a
// safe no-op.
func (c *Cluster) Release(ctr *Container) {
	if ctr == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ctr.released {
		c.releaseContainerLocked(ctr)
	}
}

// ReleaseAll releases a batch of containers.
func (c *Cluster) ReleaseAll(ctrs []*Container) {
	for _, ctr := range ctrs {
		c.Release(ctr)
	}
}

// Capacity sums total resources over all nodes, healthy or not.
func (c *Cluster) Capacity() (cores, memMB int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		cores += n.Cores
		memMB += n.MemMB
	}
	return cores, memMB
}

// Clock exposes the cluster's virtual clock.
func (c *Cluster) Clock() *vtime.Clock { return c.clock }

// CheckInvariants verifies resource-accounting invariants; tests call it
// after random allocate/release sequences.
func (c *Cluster) CheckInvariants() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.nodes))
	for n := range c.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	// The delta-maintained books must agree with a from-scratch recount —
	// any missed delta on a reserve/release/grow/shrink/resize/revoke/fail/
	// restore path shows up here. The recount rebuilds every node's
	// per-dimension slice sums and refcount from the reservation table.
	sliceCores := make(map[string]int)
	sliceMemMB := make(map[string]int)
	sliceRefs := make(map[string]int)
	for _, res := range c.reservations {
		for _, name := range res.nodes {
			sliceCores[name] += res.sliceCores
			sliceMemMB[name] += res.sliceMemMB
			sliceRefs[name]++
		}
	}
	freeHealthy := 0
	for _, name := range names {
		if sliceRefs[name] == 0 && c.nodes[name].healthy {
			freeHealthy++
		}
	}
	if freeHealthy != c.freeHealthy {
		return fmt.Errorf("cluster: freeHealthy counter drifted: have %d, recount %d", c.freeHealthy, freeHealthy)
	}
	for _, name := range names {
		n := c.nodes[name]
		if n.usedCores < 0 || n.usedMemMB < 0 {
			return fmt.Errorf("cluster: node %s negative usage (%d cores, %d MB)", name, n.usedCores, n.usedMemMB)
		}
		if n.usedCores > n.Cores || n.usedMemMB > c.memCapLocked(n) {
			return fmt.Errorf("cluster: node %s over-allocated (%d/%d cores, %d/%d MB)",
				name, n.usedCores, n.Cores, n.usedMemMB, c.memCapLocked(n))
		}
		if n.sliceCores != sliceCores[name] || n.sliceMemMB != sliceMemMB[name] || n.sliceRefs != sliceRefs[name] {
			return fmt.Errorf("cluster: node %s slice sums drifted: have (%dc,%dMB,%d refs), recount (%dc,%dMB,%d refs)",
				name, n.sliceCores, n.sliceMemMB, n.sliceRefs, sliceCores[name], sliceMemMB[name], sliceRefs[name])
		}
		// Summed slice grants never exceed node capacity per dimension
		// (memory judged against the overcommit ceiling) — which is also what
		// keeps a lease that fills its nodes alone on them.
		if n.sliceCores > n.Cores || n.sliceMemMB > c.memCapLocked(n) {
			return fmt.Errorf("cluster: node %s slices oversubscribed (%d/%d cores, %d/%d MB)",
				name, n.sliceCores, n.Cores, n.sliceMemMB, c.memCapLocked(n))
		}
	}
	// Every lease must list known nodes once each, and its used ledger — the
	// O(1) slice-headroom counters AllocateIn consults — must agree with a
	// from-scratch recount of the live-container table and stay within the
	// slice dimensions. Containers allocated under a still-live lease must
	// sit on that lease's nodes (a lease released or crashed away while work
	// drained no longer constrains them).
	usedNow := make(map[int]map[string]sliceUse)
	for id, ctr := range c.live {
		if _, ok := c.nodes[ctr.NodeName]; !ok {
			return fmt.Errorf("cluster: container %d on unknown node %s", id, ctr.NodeName)
		}
		res, ok := c.reservations[ctr.resID]
		if !ok {
			continue
		}
		if !slices.Contains(res.nodes, ctr.NodeName) {
			return fmt.Errorf("cluster: container %d allocated under reservation %d but node %s is not leased",
				id, ctr.resID, ctr.NodeName)
		}
		m := usedNow[ctr.resID]
		if m == nil {
			m = make(map[string]sliceUse)
			usedNow[ctr.resID] = m
		}
		u := m[ctr.NodeName]
		u.cores += ctr.Cores
		u.memMB += ctr.MemMB
		m[ctr.NodeName] = u
	}
	for id, res := range c.reservations {
		if res.released {
			return fmt.Errorf("cluster: released reservation %d still in the reservation table", id)
		}
		if len(res.nodes) == 0 {
			return fmt.Errorf("cluster: live reservation %d holds no nodes (shrink below 1?)", id)
		}
		if res.sliceCores <= 0 || res.sliceMemMB <= 0 {
			return fmt.Errorf("cluster: reservation %d has dimensions (%dc,%dMB)", id, res.sliceCores, res.sliceMemMB)
		}
		seen := make(map[string]bool, len(res.nodes))
		for _, rn := range res.nodes {
			if seen[rn] {
				return fmt.Errorf("cluster: reservation %d lists node %s twice", id, rn)
			}
			seen[rn] = true
			if _, ok := c.nodes[rn]; !ok {
				return fmt.Errorf("cluster: reservation %d lists unknown node %s", id, rn)
			}
		}
		for name, u := range res.used {
			if u.cores == 0 && u.memMB == 0 {
				continue
			}
			if got := usedNow[id][name]; u.cores != got.cores || u.memMB != got.memMB {
				return fmt.Errorf("cluster: reservation %d ledger drifted on %s: have (%dc,%dMB), recount (%dc,%dMB)",
					id, name, u.cores, u.memMB, got.cores, got.memMB)
			}
			if u.cores > res.sliceCores || u.memMB > res.sliceMemMB {
				return fmt.Errorf("cluster: reservation %d usage (%dc,%dMB) on %s exceeds its slice (%dc,%dMB)",
					id, u.cores, u.memMB, name, res.sliceCores, res.sliceMemMB)
			}
		}
		for name, got := range usedNow[id] {
			if res.used[name] == nil {
				return fmt.Errorf("cluster: reservation %d runs (%dc,%dMB) on %s with no ledger entry",
					id, got.cores, got.memMB, name)
			}
		}
	}
	// Each node's usage is the sum of its live containers.
	onNode := make(map[string]sliceUse, len(names))
	for _, ctr := range c.live {
		u := onNode[ctr.NodeName]
		u.cores += ctr.Cores
		u.memMB += ctr.MemMB
		onNode[ctr.NodeName] = u
	}
	for _, name := range names {
		n := c.nodes[name]
		if u := onNode[name]; n.usedCores != u.cores || n.usedMemMB != u.memMB {
			return fmt.Errorf("cluster: node %s usage (%dc,%dMB) != its live containers (%dc,%dMB)",
				name, n.usedCores, n.usedMemMB, u.cores, u.memMB)
		}
	}
	// Checkpoint entries must hold consistent progress, and non-durable ones
	// must have at least one replica on a known node (entries losing their
	// last replica are deleted in the same critical section as the crash).
	for key, e := range c.checkpoints {
		if e.units <= 0 || e.total <= 0 || e.units > e.total {
			return fmt.Errorf("cluster: checkpoint %q has inconsistent progress %d/%d", key, e.units, e.total)
		}
		if e.durable {
			continue
		}
		if len(e.nodes) == 0 {
			return fmt.Errorf("cluster: non-durable checkpoint %q has no replicas", key)
		}
		for _, nn := range e.nodes {
			if _, ok := c.nodes[nn]; !ok {
				return fmt.Errorf("cluster: checkpoint %q replicated on unknown node %s", key, nn)
			}
		}
	}
	return nil
}
