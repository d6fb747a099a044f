package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/vtime"
)

// available sums the free resources over healthy nodes.
func available(c *Cluster) (cores, memMB int) {
	for _, n := range c.Snapshot() {
		if n.Healthy() {
			cores += n.FreeCores()
			memMB += n.FreeMemMB()
		}
	}
	return cores, memMB
}

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
	cores, _ := available(c)
	if cores != 4*8-8 {
		t.Fatalf("available cores = %d", cores)
	}
	c.ReleaseAll(ctrs)
	cores, mem := available(c)
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
	cores, _ := available(c)
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
	cores, _ := available(c)
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

func TestUtilizationAndCapacity(t *testing.T) {
	c := newTestCluster()
	if free, _ := available(c); free != 32 {
		t.Fatalf("idle cluster has %d free cores, want 32", free)
	}
	ctrs, _ := c.AllocateIn(nil, 4, 4, 1024)
	if free, _ := available(c); free != 16 {
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

	m.Start()
	m.Start() // idempotent

	if !m.NodeHealthy("node0") || !m.ServiceOn(engine.EngineSpark) {
		t.Fatal("initial poll missing statuses")
	}
	first := m.Changes()

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
	if m.Changes() != first+1 {
		t.Fatalf("changed polls = %d after %d, want one more", m.Changes(), first)
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
		freeC, freeM := available(c)
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

// A node marked unhealthy keeps its work: RestoreNode afterwards is a
// health flip that keeps its live containers, their usage and the
// checkpoint replicas it lists.
func TestRestoreAfterHealthFlipKeepsContainersAndReplicas(t *testing.T) {
	c := New(vtime.NewClock(), 2, 4, 8192)
	rec := trace.NewRecorder(0)
	c.SetTracer(rec)
	ctrs, err := c.AllocateIn(nil, 2, 2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	c.PutCheckpoint("op/rank", "pagerank", 10, 40, []string{"node1"}, false)
	if err := c.SetNodeHealth("node1", false); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreNode("node1"); err != nil {
		t.Fatal(err)
	}
	for _, ctr := range ctrs {
		if ctr.Lost() {
			t.Fatalf("container %d on %s lost by the restore", ctr.ID, ctr.NodeName)
		}
	}
	if got := c.LiveContainers(); got != 2 {
		t.Fatalf("live containers = %d, want 2", got)
	}
	if n := c.Snapshot()[1]; !n.Healthy() || n.FreeCores() != 2 {
		t.Fatalf("node1 after restore: healthy %v, %d free cores; want true, 2", n.Healthy(), n.FreeCores())
	}
	if got := c.CheckpointProgress("op/rank", "pagerank", 40); got != 10 {
		t.Fatalf("progress = %d after the restore, want 10", got)
	}
	for _, ev := range rec.Events() {
		if ev.Type != trace.EvNodeRestore {
			t.Fatalf("restore emitted %s", ev.Type)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The replica is still listed on node1: its crash is the last replica's.
	c.failNodeNow("node1")
	if n := c.Checkpoints(); n != 0 {
		t.Fatalf("%d checkpoints after node1 crashed, want 0", n)
	}
}

// After FailNode the node holds nothing, so RestoreNode is a pure health
// flip: one node.restore event, no container or checkpoint touched.
func TestRestoreAfterCrashIsAHealthFlip(t *testing.T) {
	c := New(vtime.NewClock(), 2, 4, 8192)
	ctrs, err := c.AllocateIn(nil, 2, 2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	c.PutCheckpoint("op/rank", "pagerank", 10, 40, []string{"node0", "node1"}, false)
	c.failNodeNow("node1")
	rec := trace.NewRecorder(0)
	c.SetTracer(rec)
	before := c.Snapshot()
	if err := c.RestoreNode("node1"); err != nil {
		t.Fatal(err)
	}
	after := c.Snapshot()
	if !after[1].Healthy() || after[1].FreeCores() != 4 || after[1].FreeMemMB() != 8192 {
		t.Fatalf("node1 after restore: healthy %v, (%dc,%dMB) free", after[1].Healthy(), after[1].FreeCores(), after[1].FreeMemMB())
	}
	if before[0].FreeCores() != after[0].FreeCores() || before[0].Healthy() != after[0].Healthy() {
		t.Fatal("restoring node1 changed node0")
	}
	if got := c.LiveContainers(); got != 1 {
		t.Fatalf("live containers = %d, want the one on node0", got)
	}
	for _, ctr := range ctrs {
		if ctr.Lost() != (ctr.NodeName == "node1") {
			t.Fatalf("container %d on %s: lost %v", ctr.ID, ctr.NodeName, ctr.Lost())
		}
	}
	if got := c.CheckpointProgress("op/rank", "pagerank", 40); got != 10 {
		t.Fatalf("progress = %d, want 10 (node0 keeps its replica)", got)
	}
	if evs := rec.Events(); len(evs) != 1 || evs[0].Type != trace.EvNodeRestore {
		t.Fatalf("restore emitted %v, want one node.restore", evs)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Randomized allocate/release/crash/restore/health-flip/checkpoint
// sequences across seeds and GOMAXPROCS settings keep the invariants after
// every op; once every node is restored and every container released, the
// whole capacity is free again. The name dates from the agent reconciler;
// the storm now drives the control plane alone.
func TestReconcilerConvergenceStorm(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/procs=%d", seed, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				r := rand.New(rand.NewSource(seed))
				const nodes = 6
				c := New(vtime.NewClock(), nodes, 8, 16384)

				name := func() string { return fmt.Sprintf("node%d", r.Intn(nodes)) }
				var live []*Container
				sweep := func() {
					kept := live[:0]
					for _, ctr := range live {
						if !ctr.Lost() {
							kept = append(kept, ctr)
						}
					}
					live = kept
				}
				for i := 0; i < 300; i++ {
					switch r.Intn(10) {
					case 0, 1, 2:
						if ctrs, err := c.AllocateIn(nil, r.Intn(3)+1, r.Intn(3)+1, (r.Intn(4)+1)*512); err == nil {
							live = append(live, ctrs...)
						}
					case 3:
						sweep()
						if len(live) > 0 {
							j := r.Intn(len(live))
							c.Release(live[j])
							live = append(live[:j], live[j+1:]...)
						}
					case 4:
						_ = c.SetNodeHealth(name(), false)
					case 5:
						_ = c.SetNodeHealth(name(), true)
					case 6:
						_ = c.FailNode(name(), 0)
					case 7:
						_ = c.RestoreNode(name())
					case 8:
						c.PutCheckpoint(fmt.Sprintf("ckpt/%d", r.Intn(8)), "alg", r.Intn(5)+1, 10, []string{name()}, r.Intn(2) == 0)
					case 9:
						c.ClearCheckpoint(fmt.Sprintf("ckpt/%d", r.Intn(8)))
					}
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}

				for _, n := range c.Nodes() {
					if err := c.RestoreNode(n.Name); err != nil {
						t.Fatal(err)
					}
				}
				c.ReleaseAll(live)
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				freeC, freeM := available(c)
				capC, capM := c.Capacity()
				if freeC != capC || freeM != capM {
					t.Fatalf("after the storm (%dc,%dMB) free of (%dc,%dMB)", freeC, freeM, capC, capM)
				}
			})
		}
	}
}

// CheckInvariants recounts every node's usage from the live containers.
func TestCheckInvariantsRecountsNodeUsage(t *testing.T) {
	c := New(vtime.NewClock(), 2, 4, 8192)
	if _, err := c.AllocateIn(nil, 2, 1, 512); err != nil {
		t.Fatal(err)
	}
	c.nodes["node1"].usedMemMB++
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants missed a node whose usage differs from its containers")
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

// Every party parked in the future is a subscriber of the health board: a
// changed poll wakes them all at its instant, an idle one none.
func TestMonitorMultipleSubscribers(t *testing.T) {
	clock := vtime.NewClock()
	c := New(clock, 2, 2, 4096)
	m := NewMonitor(c, nil, 10*time.Second)
	m.Start()

	if err := c.FailNode("node1", 12*time.Second); err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		woken []string
		wg    sync.WaitGroup
	)
	for _, x := range []struct {
		name string
		at   time.Duration
	}{{"a", 100 * time.Second}, {"b", 200 * time.Second}} {
		p := clock.Join()
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Await()
			p.WaitUntil(x.at)
			mu.Lock()
			woken = append(woken, fmt.Sprintf("%s@%v", x.name, clock.Now()))
			mu.Unlock()
			p.Leave()
		}()
	}
	clock.Kick()
	wg.Wait()
	if got, want := strings.Join(woken, " "), "a@20s b@20s"; got != want {
		t.Fatalf("parked parties woke %q, want %q (the poll at 10s is idle, the one at 20s sees the crash)", got, want)
	}
	if m.NodeHealthy("node1") {
		t.Fatal("monitor did not observe the crash")
	}
	if got := m.Changes(); got != 2 {
		t.Fatalf("changed polls = %d, want 2 (the first poll and the crash)", got)
	}
}
