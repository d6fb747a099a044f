package cluster

import (
	"slices"
	"testing"

	"github.com/asap-project/ires/internal/trace"
)

func TestPutCheckpointMonotonicMaxWins(t *testing.T) {
	c := newTestCluster()
	key := "op1/rank"
	c.PutCheckpoint(key, "pagerank", 5, 40, []string{"node0"}, true)
	// A slow original banking an older boundary cannot roll progress back.
	c.PutCheckpoint(key, "pagerank", 3, 40, []string{"node0"}, true)
	if got := c.CheckpointProgress(key, "pagerank", 40); got != 5 {
		t.Fatalf("progress = %d after stale write, want 5", got)
	}
	c.PutCheckpoint(key, "pagerank", 7, 40, []string{"node0"}, true)
	if got := c.CheckpointProgress(key, "pagerank", 40); got != 7 {
		t.Fatalf("progress = %d, want 7", got)
	}
	if n := c.Checkpoints(); n != 1 {
		t.Fatalf("%d entries stored, want 1", n)
	}
}

func TestPutCheckpointReplacesOnComputationChange(t *testing.T) {
	c := newTestCluster()
	key := "op1/rank"
	c.PutCheckpoint(key, "pagerank", 30, 40, nil, true)

	// A different algorithm replaces the entry even at lower units: stale
	// progress from an abandoned implementation must not seed it.
	c.PutCheckpoint(key, "kmeans", 2, 40, nil, true)
	if got := c.CheckpointProgress(key, "pagerank", 40); got != 0 {
		t.Fatalf("pagerank progress = %d after kmeans replaced it, want 0", got)
	}
	if got := c.CheckpointProgress(key, "kmeans", 40); got != 2 {
		t.Fatalf("kmeans progress = %d, want 2", got)
	}

	// Same algorithm but a different total is likewise a different run shape.
	c.PutCheckpoint(key, "kmeans", 1, 10, nil, true)
	if got := c.CheckpointProgress(key, "kmeans", 40); got != 0 {
		t.Fatalf("total=40 progress = %d after total changed to 10, want 0", got)
	}
	if got := c.CheckpointProgress(key, "kmeans", 10); got != 1 {
		t.Fatalf("total=10 progress = %d, want 1", got)
	}
}

func TestPutCheckpointRejectsDegenerateArgs(t *testing.T) {
	c := newTestCluster()
	c.PutCheckpoint("", "a", 1, 2, nil, true)   // empty key
	c.PutCheckpoint("k", "a", 0, 2, nil, true)  // no progress
	c.PutCheckpoint("k", "a", -1, 2, nil, true) // negative progress
	c.PutCheckpoint("k", "a", 1, 0, nil, true)  // no total
	c.PutCheckpoint("k", "a", 3, 2, nil, true)  // units beyond total
	if n := c.Checkpoints(); n != 0 {
		t.Fatalf("%d entries stored from degenerate writes, want 0", n)
	}
	if got := c.CheckpointProgress("k", "a", 2); got != 0 {
		t.Fatalf("progress = %d, want 0", got)
	}
}

func TestClearCheckpoint(t *testing.T) {
	c := newTestCluster()
	c.PutCheckpoint("k", "a", 1, 2, nil, true)
	c.ClearCheckpoint("k")
	if n := c.Checkpoints(); n != 0 {
		t.Fatalf("%d entries after clear, want 0", n)
	}
}

// lostEvents returns the EvCheckpointLost steps recorded so far.
func lostEvents(rec *trace.Recorder) []string {
	var lost []string
	for _, ev := range rec.Events() {
		if ev.Type == trace.EvCheckpointLost {
			lost = append(lost, ev.Step)
		}
	}
	return lost
}

func TestDurableCheckpointSurvivesNodeCrash(t *testing.T) {
	c := newTestCluster()
	rec := trace.NewRecorder(0)
	c.SetTracer(rec)
	c.PutCheckpoint("op/rank", "pagerank", 10, 40, []string{"node0", "node1"}, true)
	c.failNodeNow("node0")
	c.failNodeNow("node1")
	if got := c.CheckpointProgress("op/rank", "pagerank", 40); got != 10 {
		t.Fatalf("durable progress = %d after crashes, want 10", got)
	}
	if lost := lostEvents(rec); len(lost) != 0 {
		t.Fatalf("durable checkpoint reported lost: %v", lost)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatedCheckpointDiesWithLastReplica(t *testing.T) {
	c := newTestCluster()
	rec := trace.NewRecorder(0)
	c.SetTracer(rec)
	c.PutCheckpoint("op/rank", "pagerank", 10, 40, []string{"node0", "node1"}, false)

	// First replica crash: the other copy keeps the progress alive.
	c.failNodeNow("node0")
	if got := c.CheckpointProgress("op/rank", "pagerank", 40); got != 10 {
		t.Fatalf("progress = %d with one replica left, want 10", got)
	}
	if lost := lostEvents(rec); len(lost) != 0 {
		t.Fatalf("loss reported while a replica survives: %v", lost)
	}

	// Last replica crash: the entry is gone and the loss is visible.
	c.failNodeNow("node1")
	if got := c.CheckpointProgress("op/rank", "pagerank", 40); got != 0 {
		t.Fatalf("progress = %d after last replica died, want 0", got)
	}
	if n := c.Checkpoints(); n != 0 {
		t.Fatalf("%d entries after total loss, want 0", n)
	}
	lost := lostEvents(rec)
	if len(lost) != 1 || lost[0] != "op/rank" {
		t.Fatalf("lost events = %v, want exactly [op/rank]", lost)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// storedReplicas returns the replica set stored under key.
func storedReplicas(c *Cluster, key string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.checkpoints[key].nodes...)
}

func TestPutCheckpointAdvanceAllocatesNothing(t *testing.T) {
	c := newTestCluster()
	replicas := []string{"node0", "node1"}
	units := 1
	c.PutCheckpoint("k", "a", units, 1<<30, replicas, false)
	if n := testing.AllocsPerRun(100, func() {
		units++
		c.PutCheckpoint("k", "a", units, 1<<30, replicas, false)
	}); n != 0 {
		t.Fatalf("%.1f allocations per advance with an unchanged replica set, want 0", n)
	}
	c.PutCheckpoint("d", "a", 1, 1<<30, replicas, true)
	if n := testing.AllocsPerRun(100, func() {
		units++
		c.PutCheckpoint("d", "a", units, 1<<30, replicas, true)
	}); n != 0 {
		t.Fatalf("%.1f allocations per durable advance, want 0", n)
	}
	if got := c.CheckpointProgress("k", "a", 1<<30); got != units-101 {
		t.Fatalf("progress = %d, want %d", got, units-101)
	}
	if got := storedReplicas(c, "d"); got != nil {
		t.Fatalf("durable entry stores replicas %v, want none", got)
	}
}

func TestPutCheckpointOwnsItsReplicas(t *testing.T) {
	c := newTestCluster()
	replicas := []string{"node1", "node0"}
	c.PutCheckpoint("k", "a", 1, 10, replicas, false)
	replicas[0] = "node3"
	if got := storedReplicas(c, "k"); !slices.Equal(got, []string{"node0", "node1"}) {
		t.Fatalf("stored replicas %v after the caller reused its slice, want [node0 node1]", got)
	}
	// An unchanged set kept in place is still the store's own slice.
	sorted := []string{"node0", "node1"}
	c.PutCheckpoint("k", "a", 2, 10, sorted, false)
	sorted[1] = "node3"
	if got := storedReplicas(c, "k"); !slices.Equal(got, []string{"node0", "node1"}) {
		t.Fatalf("stored replicas %v after the caller reused its slice, want [node0 node1]", got)
	}
}

func TestPutCheckpointAfterReplicaCrash(t *testing.T) {
	c := newTestCluster()
	// One attempt's replica set, computed once at launch and passed to
	// every write of the attempt.
	replicas := []string{"node0", "node1", "node2"}
	c.PutCheckpoint("k", "a", 1, 10, replicas, false)
	c.failNodeNow("node1")
	if got := storedReplicas(c, "k"); !slices.Equal(got, []string{"node0", "node2"}) {
		t.Fatalf("stored replicas %v after node1 crashed, want [node0 node2]", got)
	}
	if !slices.Equal(replicas, []string{"node0", "node1", "node2"}) {
		t.Fatalf("the crash filtered the attempt's own slice: %v", replicas)
	}
	c.PutCheckpoint("k", "a", 2, 10, replicas, false)
	if got := storedReplicas(c, "k"); !slices.Equal(got, replicas) {
		t.Fatalf("stored replicas %v after the next write, want %v", got, replicas)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
