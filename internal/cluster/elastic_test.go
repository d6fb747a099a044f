package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/asap-project/ires/internal/vtime"
)

// Lease mechanics: a reservation takes nodes first-fit in stable order and is
// atomic, revoke force-releases stragglers, and every operation is
// invariant-preserving.
func TestGrowRevoke(t *testing.T) {
	c := New(vtime.NewClock(), 8, 4, 8192)
	r, err := c.Reserve(5)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(r.Nodes()); got != "[node0 node1 node2 node3 node4]" {
		t.Fatalf("lease nodes %s, want the first five", got)
	}
	// A reservation past the free pool is atomic: nothing changes.
	if _, err := c.Reserve(4); !errors.Is(err, ErrInsufficientResources) {
		t.Fatalf("over-reserve err = %v", err)
	}
	if r.Size() != 5 || c.UnreservedHealthy() != 3 {
		t.Fatalf("failed reserve moved the books: lease size %d, unreserved %d", r.Size(), c.UnreservedHealthy())
	}

	// One live container for the revoke to force-release.
	if _, err := c.AllocateIn(r, 1, 1, 512); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Revoke force-releases the remaining container and frees the node.
	if dropped := c.RevokeReservation(r); dropped != 1 {
		t.Fatalf("revoke dropped %d containers, want 1", dropped)
	}
	// The lease holds nothing now but keeps the shape it was granted.
	if !r.Released() || r.Size() != 5 || c.ReservedNodes() != 0 {
		t.Fatalf("lease not fully revoked: released=%v size=%d reserved=%d", r.Released(), r.Size(), c.ReservedNodes())
	}
	if got := c.UnreservedHealthy(); got != 8 {
		t.Fatalf("unreserved after revoke = %d, want 8", got)
	}
	// Idempotent terminal ops.
	if dropped := c.RevokeReservation(r); dropped != 0 {
		t.Fatalf("second revoke dropped %d", dropped)
	}
	c.ReleaseReservation(r)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Allocations under a dead lease fail cleanly.
	if _, err := c.AllocateIn(r, 1, 1, 512); !errors.Is(err, ErrReleasedReservation) {
		t.Fatalf("allocation under a revoked lease: %v", err)
	}
}

// Property: a randomized storm of reserve/revoke/allocate/free operations (fixed seed) preserves the cluster invariants after every
// single step, and total accounting returns to zero once everything is
// released.
func TestElasticStormInvariants(t *testing.T) {
	const nodes = 12
	rng := rand.New(rand.NewSource(7))
	c := New(vtime.NewClock(), nodes, 4, 8192)

	type holding struct {
		res  *Reservation
		ctrs []*Container
	}
	var held []*holding

	check := func(step int, op string) {
		t.Helper()
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
	}

	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(4); op {
		case 0: // reserve
			n := 1 + rng.Intn(4)
			if r, err := c.Reserve(n); err == nil {
				held = append(held, &holding{res: r})
			}
			check(step, "reserve")
		case 1: // allocate containers inside a lease
			if len(held) == 0 {
				continue
			}
			h := held[rng.Intn(len(held))]
			if h.res.Released() {
				continue
			}
			if ctrs, err := c.AllocateIn(h.res, 1+rng.Intn(2), 1, 512); err == nil {
				h.ctrs = append(h.ctrs, ctrs...)
			}
			check(step, "allocate")
		case 2: // free containers
			if len(held) == 0 {
				continue
			}
			h := held[rng.Intn(len(held))]
			c.ReleaseAll(h.ctrs)
			h.ctrs = nil
			check(step, "free")
		case 3: // revoke or release
			if len(held) == 0 {
				continue
			}
			i := rng.Intn(len(held))
			h := held[i]
			if rng.Intn(2) == 0 {
				c.RevokeReservation(h.res) // force-drops its containers
			} else {
				c.ReleaseAll(h.ctrs)
				c.ReleaseReservation(h.res)
			}
			held = append(held[:i], held[i+1:]...)
			check(step, "revoke/release")
		}
	}

	for _, h := range held {
		c.RevokeReservation(h.res)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := c.ReservedNodes(); got != 0 {
		t.Fatalf("%d nodes still reserved after the storm", got)
	}
	if got := c.LiveContainers(); got != 0 {
		t.Fatalf("%d containers still live after the storm", got)
	}
	if got := c.UnreservedHealthy(); got != nodes {
		t.Fatalf("unreserved = %d, want %d", got, nodes)
	}
}

// Slice lease mechanics: several slice leases share a node, AllocateIn is
// confined to the slice, a whole-node lease admits no neighbour, and releasing restores the exact pre-grant free
// counters.
func TestSliceReserveRelease(t *testing.T) {
	c := New(vtime.NewClock(), 4, 8, 16384)

	preFree := c.UnreservedHealthy()
	r1, err := c.ReserveSlices(2, 3, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if sc, sm := r1.SliceDims(); sc != 3 || sm != 4096 {
		t.Fatalf("slice dims (%d,%d), want (3,4096)", sc, sm)
	}
	// A second slice lease can co-locate on the same nodes.
	r2, err := c.ReserveSlices(4, 3, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if cores, mem := c.ReservedSlices(); cores != 2*3+4*3 || mem != 2*4096+4*4096 {
		t.Fatalf("reserved slices (%d,%d)", cores, mem)
	}
	// Whole-node reservation must route around sliced nodes; with all four
	// nodes carrying slices it fails outright.
	if _, err := c.Reserve(1); !errors.Is(err, ErrInsufficientResources) {
		t.Fatalf("whole-node reserve on sliced cluster: %v", err)
	}

	// AllocateIn draws only from the slice: 3 cores fit, 4 don't.
	if _, err := c.AllocateIn(r1, 1, 4, 512); !errors.Is(err, ErrInsufficientResources) {
		t.Fatalf("over-slice cores allocation: %v", err)
	}
	ctrs, err := c.AllocateIn(r1, 2, 3, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctrs) != 2 {
		t.Fatalf("allocated %d containers, want 2", len(ctrs))
	}
	// The slice is now full on both lease nodes.
	if _, err := c.AllocateIn(r1, 1, 1, 512); !errors.Is(err, ErrInsufficientResources) {
		t.Fatalf("allocation into a full slice: %v", err)
	}

	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	c.ReleaseAll(ctrs)
	c.ReleaseReservation(r1)
	c.ReleaseReservation(r2)
	if cores, mem := c.ReservedSlices(); cores != 0 || mem != 0 {
		t.Fatalf("slices outstanding after release: (%d,%d)", cores, mem)
	}
	if got := c.UnreservedHealthy(); got != preFree {
		t.Fatalf("unreserved = %d, want pre-grant %d", got, preFree)
	}

	// Full nodes are exclusive: no slice, however small, fits beside them.
	whole, err := c.Reserve(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReserveSlices(1, 1, 1024); !errors.Is(err, ErrInsufficientResources) {
		t.Fatalf("slice beside a whole-node lease: %v", err)
	}
	c.ReleaseReservation(whole)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: a 2000-step randomized storm of multi-dimensional lease
// operations on an overcommitted cluster — slice leases and whole-node
// leases side by side — keeps every invariant, never lets summed slice
// grants exceed node capacity x the overcommit ratio, and
// returns the cluster to its exact pre-grant free-counter state once
// everything is released.
func TestElasticSliceStormInvariants(t *testing.T) {
	const (
		nodes      = 8
		coresPerN  = 8
		memPerN    = 16384
		overcommit = 1.25
	)
	rng := rand.New(rand.NewSource(11))
	c := New(vtime.NewClock(), nodes, coresPerN, memPerN)
	if err := c.SetMemOvercommit(overcommit); err != nil {
		t.Fatal(err)
	}
	memCap := int(float64(memPerN) * overcommit)

	type holding struct {
		res  *Reservation
		ctrs []*Container
	}
	var held []*holding
	wholeGranted := 0

	type freeState struct {
		unreserved, reservedNodes, sliceCores, sliceMem, live int
	}
	snapshot := func() freeState {
		sc, sm := c.ReservedSlices()
		return freeState{c.UnreservedHealthy(), c.ReservedNodes(), sc, sm, c.LiveContainers()}
	}
	baseline := snapshot()

	check := func(step int, op string) {
		t.Helper()
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
		// Recount slice grants per node from the held set: capacity x
		// overcommit bounds the sum in each dimension.
		sumCores := make(map[string]int)
		sumMem := make(map[string]int)
		for _, h := range held {
			sc, sm := h.res.SliceDims()
			for _, name := range h.res.Nodes() {
				sumCores[name] += sc
				sumMem[name] += sm
			}
		}
		for name, sc := range sumCores {
			if sc > coresPerN {
				t.Fatalf("step %d (%s): node %s slice cores %d > capacity %d", step, op, name, sc, coresPerN)
			}
			if sumMem[name] > memCap {
				t.Fatalf("step %d (%s): node %s slice mem %d > capacity x overcommit %d", step, op, name, sumMem[name], memCap)
			}
		}
	}

	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(6); op {
		case 5: // reserve whole nodes: the slice that fills the node
			if r, err := c.Reserve(1 + rng.Intn(2)); err == nil {
				if sc, sm := r.SliceDims(); sc != coresPerN || sm != memCap {
					t.Fatalf("step %d: whole-node lease dims (%d,%d), want (%d,%d)", step, sc, sm, coresPerN, memCap)
				}
				held = append(held, &holding{res: r})
				wholeGranted++
			}
			check(step, "reserve-whole")
		case 0: // reserve slices
			n := 1 + rng.Intn(4)
			sc := 1 + rng.Intn(4)
			sm := 1024 * (1 + rng.Intn(8))
			if r, err := c.ReserveSlices(n, sc, sm); err == nil {
				held = append(held, &holding{res: r})
			}
			check(step, "reserve-slices")
		case 1: // allocate inside the slice
			if len(held) == 0 {
				continue
			}
			h := held[rng.Intn(len(held))]
			if h.res.Released() {
				continue
			}
			if ctrs, err := c.AllocateIn(h.res, 1+rng.Intn(2), 1, 512); err == nil {
				h.ctrs = append(h.ctrs, ctrs...)
			}
			check(step, "allocate")
		case 2: // free containers
			if len(held) == 0 {
				continue
			}
			h := held[rng.Intn(len(held))]
			c.ReleaseAll(h.ctrs)
			h.ctrs = nil
			check(step, "free")
		case 3: // revoke or release
			if len(held) == 0 {
				continue
			}
			i := rng.Intn(len(held))
			h := held[i]
			if rng.Intn(2) == 0 {
				c.RevokeReservation(h.res)
			} else {
				c.ReleaseAll(h.ctrs)
				c.ReleaseReservation(h.res)
			}
			held = append(held[:i], held[i+1:]...)
			check(step, "revoke/release")
		case 4: // solo grant/release cycle: exact free-counter restoration
			pre := snapshot()
			r, err := c.ReserveSlices(1+rng.Intn(2), 1+rng.Intn(3), 2048)
			if err != nil {
				continue
			}
			ctrs, _ := c.AllocateIn(r, 1, 1, 512)
			c.ReleaseAll(ctrs)
			c.ReleaseReservation(r)
			if got := snapshot(); got != pre {
				t.Fatalf("step %d: free counters %+v after release, want pre-grant %+v", step, got, pre)
			}
			check(step, "cycle")
		}
	}

	for _, h := range held {
		c.RevokeReservation(h.res)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(); got != baseline {
		t.Fatalf("final free counters %+v, want baseline %+v", got, baseline)
	}
	if wholeGranted == 0 {
		t.Fatal("storm granted no whole-node lease: the mixed case went unexercised")
	}
}

// OOM mechanics: on an overcommitted node, an allocation that pushes actual
// usage past physical memory consults the killer hook and invalidates the
// largest live container; the loss is observable through Container.Lost and
// the fault.oomkill event.
func TestOOMKillOnOversubscribedNode(t *testing.T) {
	clock := vtime.NewClock()
	c := New(clock, 1, 8, 16384)
	if err := c.SetMemOvercommit(1.5); err != nil {
		t.Fatal(err)
	}
	// Ratio below 1 is nonsense.
	if err := c.SetMemOvercommit(0.5); err == nil {
		t.Fatal("SetMemOvercommit(0.5) accepted")
	}

	var consulted []int
	c.SetOOMKiller(func(node string, overMB int) bool {
		consulted = append(consulted, overMB)
		return true
	})

	// Two slice leases of 12288MB each fit under 16384*1.5 = 24576 but
	// exceed physical 16384 when both actually allocate.
	r1, err := c.ReserveSlices(1, 2, 12288)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.ReserveSlices(1, 2, 12288)
	if err != nil {
		t.Fatal(err)
	}
	small, err := c.AllocateIn(r1, 1, 1, 6144)
	if err != nil {
		t.Fatal(err)
	}
	big, err := c.AllocateIn(r2, 1, 1, 12288)
	if err != nil {
		t.Fatal(err)
	}
	// 6144 + 12288 = 18432 > 16384: the sweep kills the largest container
	// (the 12288MB one just granted) and leaves the node within physical.
	if len(consulted) == 0 {
		t.Fatal("OOM killer never consulted")
	}
	if !big[0].Lost() {
		t.Fatal("largest container survived the OOM sweep")
	}
	if small[0].Lost() {
		t.Fatal("small container was killed instead of the largest")
	}
	if got := c.LiveContainers(); got != 1 {
		t.Fatalf("live containers = %d, want 1", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A declined kill leaves the node oversubscribed but alive.
	c.SetOOMKiller(func(string, int) bool { return false })
	big2, err := c.AllocateIn(r2, 1, 1, 12288)
	if err != nil {
		t.Fatal(err)
	}
	if big2[0].Lost() {
		t.Fatal("container killed although the hook declined")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.ReleaseAll(small)
	c.ReleaseAll(big2)
	c.ReleaseReservation(r1)
	c.ReleaseReservation(r2)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
