package cluster

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/asap-project/ires/internal/vtime"
)

// Elastic lease mechanics: grow extends first-fit in stable order, shrink
// frees only idle nodes, revoke force-releases stragglers, and every
// operation is invariant-preserving.
func TestGrowShrinkRevoke(t *testing.T) {
	c := New(vtime.NewClock(), 8, 4, 8192)
	r, err := c.Reserve(2)
	if err != nil {
		t.Fatal(err)
	}
	added, err := c.GrowReservation(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 3 || r.Size() != 5 {
		t.Fatalf("grow added %v, size %d; want 3 added, size 5", added, r.Size())
	}
	// Grow past capacity is atomic: nothing changes.
	if _, err := c.GrowReservation(r, 4); !errors.Is(err, ErrInsufficientResources) {
		t.Fatalf("overgrow err = %v", err)
	}
	if r.Size() != 5 {
		t.Fatalf("failed grow mutated the lease: size %d", r.Size())
	}

	// Pin one node with a live container: shrink must route around it.
	ctrs, err := c.AllocateIn(r, 1, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	busyNode := ctrs[0].NodeName
	removed, err := c.ShrinkReservation(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range removed {
		if name == busyNode {
			t.Fatalf("shrink released busy node %s", busyNode)
		}
	}
	if r.Size() != 1 {
		t.Fatalf("size after shrink = %d, want 1 (only the busy node pinned)", r.Size())
	}
	if got := r.Nodes(); len(got) != 1 || got[0] != busyNode {
		t.Fatalf("lease kept %v, want just the busy node %s", got, busyNode)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Revoke force-releases the remaining container and frees the node.
	if dropped := c.RevokeReservation(r); dropped != 1 {
		t.Fatalf("revoke dropped %d containers, want 1", dropped)
	}
	if !r.Released() || r.Size() != 0 {
		t.Fatalf("lease not fully revoked: released=%v size=%d", r.Released(), r.Size())
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
	// Elastic ops on a dead lease fail cleanly.
	if _, err := c.GrowReservation(r, 1); err == nil {
		t.Fatal("grow of released lease succeeded")
	}
	if _, err := c.ShrinkReservation(r, 1); err == nil {
		t.Fatal("shrink of released lease succeeded")
	}
}

// A shrink that finds every above-target node busy keeps them all.
func TestShrinkKeepsBusyNodes(t *testing.T) {
	c := New(vtime.NewClock(), 4, 2, 4096)
	r, err := c.Reserve(3)
	if err != nil {
		t.Fatal(err)
	}
	// One container per leased node: everything is pinned.
	if _, err := c.AllocateIn(r, 3, 1, 512); err != nil {
		t.Fatal(err)
	}
	removed, err := c.ShrinkReservation(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 || r.Size() != 3 {
		t.Fatalf("shrink of fully busy lease removed %v (size %d)", removed, r.Size())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: a randomized storm of reserve/grow/shrink/revoke/allocate/free
// operations (fixed seed) preserves the cluster invariants after every
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
		switch op := rng.Intn(6); op {
		case 0: // reserve
			n := 1 + rng.Intn(4)
			if r, err := c.Reserve(n); err == nil {
				held = append(held, &holding{res: r})
			}
			check(step, "reserve")
		case 1: // grow
			if len(held) == 0 {
				continue
			}
			h := held[rng.Intn(len(held))]
			_, _ = c.GrowReservation(h.res, 1+rng.Intn(3))
			check(step, "grow")
		case 2: // shrink
			if len(held) == 0 {
				continue
			}
			h := held[rng.Intn(len(held))]
			_, _ = c.ShrinkReservation(h.res, 1+rng.Intn(3))
			check(step, "shrink")
		case 3: // allocate containers inside a lease
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
		case 4: // free containers
			if len(held) == 0 {
				continue
			}
			h := held[rng.Intn(len(held))]
			c.ReleaseAll(h.ctrs)
			h.ctrs = nil
			check(step, "free")
		case 5: // revoke or release
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
// confined to the slice, ResizeSlice grows and shrinks per dimension, and
// releasing restores the exact pre-grant free counters.
func TestSliceReserveResizeRelease(t *testing.T) {
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

	// Grow the memory dimension, shrink cores to current usage.
	if err := c.ResizeSlice(r1, 3, 6144); err != nil {
		t.Fatal(err)
	}
	// Shrinking below live usage must fail atomically.
	if err := c.ResizeSlice(r1, 2, 6144); !errors.Is(err, ErrInsufficientResources) {
		t.Fatalf("shrink below usage: %v", err)
	}
	// Growing cores past physical headroom fails: node has 8 cores,
	// r1 3 + r2 3 leaves 2.
	if err := c.ResizeSlice(r1, 6, 6144); !errors.Is(err, ErrInsufficientResources) {
		t.Fatalf("grow past headroom: %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Node-count grow/shrink applies to slice leases too.
	added, err := c.GrowReservation(r1, 2)
	if err != nil || len(added) != 2 {
		t.Fatalf("slice grow: %v %v", added, err)
	}
	if removed, err := c.ShrinkReservation(r1, 2); err != nil || len(removed) != 2 {
		t.Fatalf("slice shrink: %v %v", removed, err)
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
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: a 2000-step randomized storm of multi-dimensional lease
// operations on an overcommitted cluster — slice leases, whole-node leases
// and whole-node leases resized into slices, side by side — keeps every
// invariant, never lets
// summed slice grants exceed node capacity x the overcommit ratio, and
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
		res   *Reservation
		ctrs  []*Container
		whole bool // made by Reserve
	}
	var held []*holding
	wholeGranted, wholeResized := 0, 0

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
		switch op := rng.Intn(9); op {
		case 8: // reserve whole nodes: the slice that fills the node
			if r, err := c.Reserve(1 + rng.Intn(2)); err == nil {
				if sc, sm := r.SliceDims(); sc != coresPerN || sm != memCap {
					t.Fatalf("step %d: whole-node lease dims (%d,%d), want (%d,%d)", step, sc, sm, coresPerN, memCap)
				}
				held = append(held, &holding{res: r, whole: true})
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
		case 1: // grow node count
			if len(held) == 0 {
				continue
			}
			h := held[rng.Intn(len(held))]
			_, _ = c.GrowReservation(h.res, 1+rng.Intn(3))
			check(step, "grow")
		case 2: // shrink node count
			if len(held) == 0 {
				continue
			}
			h := held[rng.Intn(len(held))]
			_, _ = c.ShrinkReservation(h.res, rng.Intn(3))
			check(step, "shrink")
		case 3: // resize per dimension
			if len(held) == 0 {
				continue
			}
			h := held[rng.Intn(len(held))]
			sc := 1 + rng.Intn(6)
			sm := 1024 * (1 + rng.Intn(12))
			if err := c.ResizeSlice(h.res, sc, sm); err == nil && h.whole {
				wholeResized++
			}
			check(step, "resize")
		case 4: // allocate inside the slice
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
		case 5: // free containers
			if len(held) == 0 {
				continue
			}
			h := held[rng.Intn(len(held))]
			c.ReleaseAll(h.ctrs)
			h.ctrs = nil
			check(step, "free")
		case 6: // revoke or release
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
		case 7: // solo grant/release cycle: exact free-counter restoration
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
	if wholeGranted == 0 || wholeResized == 0 {
		t.Fatalf("storm granted %d whole-node leases and resized %d: the mixed case went unexercised", wholeGranted, wholeResized)
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

// A lease made by Reserve is a slice lease like any other: ResizeSlice
// shrinks it in place, the freed headroom admits a neighbour on the same
// node, and growing back to the full node fails atomically while the
// neighbour is there.
func TestResizeWholeNodeLeaseAdmitsNeighbour(t *testing.T) {
	c := New(vtime.NewClock(), 2, 8, 16384)
	whole, err := c.Reserve(2)
	if err != nil {
		t.Fatal(err)
	}
	if sc, sm := whole.SliceDims(); sc != 8 || sm != 16384 {
		t.Fatalf("whole-node lease dims (%d,%d), want (8,16384)", sc, sm)
	}
	// Full nodes are exclusive: no slice, however small, fits beside them.
	if _, err := c.ReserveSlices(1, 1, 1024); !errors.Is(err, ErrInsufficientResources) {
		t.Fatalf("slice beside a whole-node lease: %v", err)
	}
	ctrs, err := c.AllocateIn(whole, 2, 4, 4096)
	if err != nil {
		t.Fatal(err)
	}

	if err := c.ResizeSlice(whole, 5, 8192); err != nil {
		t.Fatalf("shrinking a whole-node lease: %v", err)
	}
	neighbour, err := c.ReserveSlices(2, 3, 8192)
	if err != nil {
		t.Fatalf("neighbour on the freed headroom: %v", err)
	}
	if got := c.ReservedNodes(); got != 2 {
		t.Fatalf("reserved nodes = %d, want 2 (two leases share each node)", got)
	}
	if _, err := c.AllocateIn(neighbour, 2, 3, 8192); err != nil {
		t.Fatalf("allocation inside the neighbour: %v", err)
	}
	// The resized lease is confined to its new slice: 4 of 5 cores are busy.
	if _, err := c.AllocateIn(whole, 1, 2, 1024); !errors.Is(err, ErrInsufficientResources) {
		t.Fatalf("allocation past the resized slice: %v", err)
	}

	if err := c.ResizeSlice(whole, 8, 16384); !errors.Is(err, ErrInsufficientResources) {
		t.Fatalf("growing back over the neighbour: %v", err)
	}
	if sc, sm := whole.SliceDims(); sc != 5 || sm != 8192 {
		t.Fatalf("failed grow changed dims to (%d,%d)", sc, sm)
	}
	if cores, mem := c.ReservedSlices(); cores != 2*(5+3) || mem != 2*(8192+8192) {
		t.Fatalf("reserved slices (%d,%d) after failed grow", cores, mem)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// With the neighbour gone the lease fills its nodes again.
	c.RevokeReservation(neighbour)
	if err := c.ResizeSlice(whole, 8, 16384); err != nil {
		t.Fatalf("growing back after the neighbour left: %v", err)
	}
	c.ReleaseAll(ctrs)
	c.ReleaseReservation(whole)
	if got := c.UnreservedHealthy(); got != 2 {
		t.Fatalf("unreserved = %d, want 2", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
