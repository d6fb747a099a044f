package cluster

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/vtime"
)

func newTestCluster() *Cluster {
	return New(vtime.NewClock(), 4, 8, 16384)
}

func TestAllocateRelease(t *testing.T) {
	c := newTestCluster()
	ctrs, err := c.AllocateIn(nil, 4, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctrs) != 4 {
		t.Fatalf("got %d containers", len(ctrs))
	}
	cores, _ := c.Available()
	if cores != 4*8-8 {
		t.Fatalf("available cores = %d", cores)
	}
	c.ReleaseAll(ctrs)
	cores, mem := c.Available()
	if cores != 32 || mem != 4*16384 {
		t.Fatalf("after release: %d cores %d MB", cores, mem)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateSpreads(t *testing.T) {
	c := newTestCluster()
	ctrs, err := c.AllocateIn(nil, 4, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, ctr := range ctrs {
		seen[ctr.NodeName]++
	}
	if len(seen) != 4 {
		t.Fatalf("containers not spread: %v", seen)
	}
}

func TestAllocateAtomicRollback(t *testing.T) {
	c := newTestCluster()
	// 5 containers of 8 cores cannot fit on 4 nodes of 8 cores.
	if _, err := c.AllocateIn(nil, 5, 8, 1024); !errors.Is(err, ErrInsufficientResources) {
		t.Fatalf("err = %v", err)
	}
	cores, _ := c.Available()
	if cores != 32 {
		t.Fatalf("failed allocation leaked resources: %d cores free", cores)
	}
}

func TestAllocateInvalid(t *testing.T) {
	c := newTestCluster()
	for _, req := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 1, 1}} {
		if _, err := c.AllocateIn(nil, req[0], req[1], req[2]); err == nil {
			t.Fatalf("invalid request %v accepted", req)
		}
	}
}

func TestDoubleReleaseSafe(t *testing.T) {
	c := newTestCluster()
	ctrs, err := c.AllocateIn(nil, 1, 2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(ctrs[0])
	c.Release(ctrs[0])
	c.Release(nil)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	cores, _ := c.Available()
	if cores != 32 {
		t.Fatalf("double release corrupted accounting: %d", cores)
	}
}

func TestUnhealthyNodesSkipped(t *testing.T) {
	c := newTestCluster()
	if err := c.SetNodeHealth("node0", false); err != nil {
		t.Fatal(err)
	}
	if err := c.SetNodeHealth("missing", false); err == nil {
		t.Fatal("unknown node accepted")
	}
	ctrs, err := c.AllocateIn(nil, 4, 8, 1024) // exactly fills remaining 3... should fail
	if err == nil {
		// 4 containers x 8 cores over 3 healthy nodes of 8 cores: impossible.
		t.Fatalf("allocation on unhealthy cluster succeeded: %v", ctrs)
	}
	ctrs, err = c.AllocateIn(nil, 3, 8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, ctr := range ctrs {
		if ctr.NodeName == "node0" {
			t.Fatal("container placed on unhealthy node")
		}
	}
	healthy := 0
	for _, n := range c.Nodes() {
		if n.Healthy() {
			healthy++
		}
	}
	if healthy != 3 {
		t.Fatalf("%d healthy nodes, want 3", healthy)
	}
}

func TestHealthScript(t *testing.T) {
	c := newTestCluster()
	c.SetHealthScript(func(n *Node) bool { return n.Name != "node2" })
	c.RunHealthChecks()
	if nodes := c.Nodes(); nodes[2].Healthy() || !nodes[0].Healthy() {
		t.Fatalf("health script result not applied: node0 %v, node2 %v", nodes[0].Healthy(), nodes[2].Healthy())
	}
}

func TestUtilizationAndCapacity(t *testing.T) {
	c := newTestCluster()
	if free, _ := c.Available(); free != 32 {
		t.Fatalf("idle cluster has %d free cores, want 32", free)
	}
	ctrs, _ := c.AllocateIn(nil, 4, 4, 1024)
	if free, _ := c.Available(); free != 16 {
		t.Fatalf("%d free cores with half the cores allocated, want 16", free)
	}
	cores, mem := c.Capacity()
	if cores != 32 || mem != 65536 {
		t.Fatalf("capacity = %d/%d", cores, mem)
	}
	c.ReleaseAll(ctrs)
}

func TestMonitorPolling(t *testing.T) {
	clock := vtime.NewClock()
	c := New(clock, 2, 4, 4096)
	env := engine.NewDefaultEnvironment(1)
	m := NewMonitor(c, env, 10*time.Second)

	var changes int
	m.OnChange(func() { changes++ })
	m.Start()
	m.Start() // idempotent

	if !m.NodeHealthy("node0") || !m.ServiceOn(engine.EngineSpark) {
		t.Fatal("initial poll missing statuses")
	}
	first := changes

	// Kill a service and a node; the next periodic poll must notice.
	env.SetAvailable(engine.EngineSpark, false)
	c.SetNodeHealth("node1", false)
	clock.Advance(10 * time.Second)

	if m.ServiceOn(engine.EngineSpark) {
		t.Fatal("dead service still reported ON")
	}
	if m.NodeHealthy("node1") {
		t.Fatal("dead node still reported healthy")
	}
	if changes <= first {
		t.Fatal("OnChange not fired")
	}
	if m.Ticks() < 2 {
		t.Fatalf("ticks = %d", m.Ticks())
	}
	found := false
	for _, e := range m.AvailableEngines() {
		if e == engine.EngineSpark {
			t.Fatal("Spark listed available")
		}
		if e == engine.EngineJava {
			found = true
		}
	}
	if !found {
		t.Fatal("Java missing from available engines")
	}
}

// Property: any random allocate/release sequence keeps accounting sane, and
// full release restores full capacity.
func TestQuickAccountingInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(vtime.NewClock(), r.Intn(6)+1, r.Intn(8)+1, (r.Intn(8)+1)*1024)
		var live []*Container
		for i := 0; i < 50; i++ {
			if r.Intn(2) == 0 || len(live) == 0 {
				ctrs, err := c.AllocateIn(nil, r.Intn(3)+1, r.Intn(4)+1, (r.Intn(4)+1)*256)
				if err == nil {
					live = append(live, ctrs...)
				}
			} else {
				j := r.Intn(len(live))
				c.Release(live[j])
				live = append(live[:j], live[j+1:]...)
			}
			if c.CheckInvariants() != nil {
				return false
			}
		}
		for _, ctr := range live {
			c.Release(ctr)
		}
		freeC, freeM := c.Available()
		capC, capM := c.Capacity()
		return freeC == capC && freeM == capM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFailNodeInvalidatesLiveContainers(t *testing.T) {
	clock := vtime.NewClock()
	c := New(clock, 4, 2, 4096)
	ctrs, err := c.AllocateIn(nil, 4, 2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.LiveContainers(); got != 4 {
		t.Fatalf("live containers = %d, want 4", got)
	}

	// Crash scheduled in the future must not fire early.
	if err := c.FailNode(ctrs[0].NodeName, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if ctrs[0].Lost() {
		t.Fatal("container lost before the crash time")
	}
	clock.Advance(10 * time.Second)
	if !ctrs[0].Lost() {
		t.Fatal("container on failed node not invalidated")
	}
	for _, ctr := range ctrs[1:] {
		if ctr.Lost() {
			t.Fatalf("container on healthy node %s invalidated", ctr.NodeName)
		}
	}
	// The lost container no longer holds resources and left the live set.
	if got := c.LiveContainers(); got != 3 {
		t.Fatalf("live containers after crash = %d, want 3", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Restore brings the capacity back.
	if err := c.RestoreNode(ctrs[0].NodeName); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocateIn(nil, 1, 2, 2048); err != nil {
		t.Fatalf("allocation on restored node failed: %v", err)
	}

	// Double release of a lost container stays safe.
	c.ReleaseAll(ctrs)
	c.ReleaseAll(ctrs)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailNodeUnknown(t *testing.T) {
	c := New(vtime.NewClock(), 2, 2, 4096)
	if err := c.FailNode("node99", 0); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
	if err := c.RestoreNode("node99"); err == nil {
		t.Fatal("RestoreNode accepted an unknown node")
	}
}

func TestMonitorMultipleSubscribers(t *testing.T) {
	clock := vtime.NewClock()
	c := New(clock, 2, 2, 4096)
	env := engine.NewDefaultEnvironment(1)
	m := NewMonitor(c, env, 10*time.Second)
	m.Start()

	var calls []string
	m.OnChange(func() { calls = append(calls, "a") })
	m.OnChange(func() { calls = append(calls, "b") })
	m.OnChange(nil) // must be ignored

	if err := c.FailNode("node1", 12*time.Second); err != nil {
		t.Fatal(err)
	}
	clock.Advance(30 * time.Second)
	if len(calls) < 2 || calls[0] != "a" || calls[1] != "b" {
		t.Fatalf("subscribers fired %v, want a then b", calls)
	}
	if m.NodeHealthy("node1") {
		t.Fatal("monitor did not observe the crash")
	}
}
