package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/vtime"
)

// collectTracer records event types in emission order (test helper).
type collectTracer struct {
	mu  sync.Mutex
	evs []trace.Event
}

func (ct *collectTracer) Emit(ev trace.Event) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.evs = append(ct.evs, ev)
}

func (ct *collectTracer) types() []trace.EventType {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	out := make([]trace.EventType, len(ct.evs))
	for i, ev := range ct.evs {
		out[i] = ev.Type
	}
	return out
}

// A node crash behind a partition is silent — no events, no desired-state
// invalidation — until the partition heals and the next reconcile round
// observes a fresh report and detects the death.
func TestSilentDeathDetectedAfterHeal(t *testing.T) {
	clock := vtime.NewClock()
	c := New(clock, 2, 4, 8192)
	ct := &collectTracer{}
	c.SetTracer(ct)

	ctrs, err := c.AllocateIn(nil, 2, 2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	var onNode1 *Container
	for _, ctr := range ctrs {
		if ctr.NodeName == "node1" {
			onNode1 = ctr
		}
	}
	if onNode1 == nil {
		t.Fatal("no container landed on node1")
	}

	if err := c.PartitionNode("node1"); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode("node1", 0); err != nil {
		t.Fatal(err)
	}
	// Silent: the control plane still believes in the node and its work.
	if onNode1.Lost() {
		t.Fatal("silent death invalidated a container before detection")
	}
	if !c.Nodes()[1].Healthy() {
		t.Fatal("silent death flipped believed health")
	}
	for _, typ := range ct.types() {
		if typ == trace.EvNodeCrash {
			t.Fatal("silent death emitted node.crash")
		}
	}

	// Reconcile tolerates the stale report (drift, not death).
	stats := c.Reconcile()
	if stats.Stale != 1 || stats.Deaths != 0 {
		t.Fatalf("reconcile during partition = %+v", stats)
	}
	if c.DriftObserved() != 1 {
		t.Fatalf("DriftObserved = %d", c.DriftObserved())
	}
	if onNode1.Lost() {
		t.Fatal("drift tolerance invalidated a container")
	}

	// Heal: the next round sees the fresh (dead) report and detects.
	if err := c.HealPartition("node1"); err != nil {
		t.Fatal(err)
	}
	stats = c.Reconcile()
	if stats.Deaths != 1 || stats.Lost != 1 {
		t.Fatalf("reconcile after heal = %+v", stats)
	}
	if !onNode1.Lost() {
		t.Fatal("detected death did not invalidate the container")
	}
	if c.DeathsDetected() != 1 {
		t.Fatalf("DeathsDetected = %d", c.DeathsDetected())
	}
	sawDrift, sawCrash := false, false
	for _, typ := range ct.types() {
		switch typ {
		case trace.EvAgentDrift:
			sawDrift = true
		case trace.EvNodeCrash:
			sawCrash = true
		}
	}
	if !sawDrift || !sawCrash {
		t.Fatalf("events %v missing agent.drift or node.crash", ct.types())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d := c.DesiredActualDiff(); d != 0 {
		t.Fatalf("DesiredActualDiff after convergence = %d", d)
	}
}

// With MaxStaleness armed, the reconciler declares a too-stale node dead
// without waiting for the heal; when the agent turns out to have survived,
// the post-heal round restores belief and fences the zombie containers.
func TestStalenessBoundAndZombieFencing(t *testing.T) {
	clock := vtime.NewClock()
	c := New(clock, 2, 4, 8192)
	ct := &collectTracer{}
	c.SetTracer(ct)
	c.SetMaxStaleness(30 * time.Second)

	ctrs, err := c.AllocateIn(nil, 2, 2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PartitionNode("node1"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Second)
	if stats := c.Reconcile(); stats.Deaths != 0 {
		t.Fatalf("death declared below the staleness bound: %+v", stats)
	}
	clock.Advance(25 * time.Second)
	stats := c.Reconcile()
	if stats.Deaths != 1 || stats.Lost != 1 {
		t.Fatalf("staleness bound did not declare death: %+v", stats)
	}
	if c.Nodes()[1].Healthy() {
		t.Fatal("declared-dead node still believed healthy")
	}
	// The agent is actually alive and still hosts its (now unwanted)
	// container: desired and actual genuinely diverge.
	if c.DesiredActualDiff() == 0 {
		t.Fatal("declaration left no divergence to fence")
	}
	// Re-reconciling while still stale must not declare again.
	if stats := c.Reconcile(); stats.Deaths != 0 {
		t.Fatalf("repeated declaration: %+v", stats)
	}

	if err := c.HealPartition("node1"); err != nil {
		t.Fatal(err)
	}
	stats = c.Reconcile()
	if stats.Restores != 1 || stats.Fenced != 1 {
		t.Fatalf("post-heal recovery = %+v", stats)
	}
	sawRestore := false
	for _, typ := range ct.types() {
		if typ == trace.EvNodeRestore {
			sawRestore = true
		}
	}
	if !sawRestore {
		t.Fatal("recovery did not emit node.restore")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d := c.DesiredActualDiff(); d != 0 {
		t.Fatalf("DesiredActualDiff after fencing = %d", d)
	}
	// Capacity on the recovered node is allocatable again.
	if _, err := c.AllocateIn(nil, 2, 2, 2048); err != nil {
		t.Fatal(err)
	}
	_ = ctrs
}

// A reconcile round over a quiescent, partition-free cluster observes
// nothing: no events, no deaths, desired == actual. This is the property
// that keeps golden traces of scenarios that never reconcile byte-identical.
func TestReconcileQuiescentNoop(t *testing.T) {
	clock := vtime.NewClock()
	c := New(clock, 4, 8, 16384)
	ctrs, err := c.AllocateIn(nil, 6, 2, 2048)
	if err != nil {
		t.Fatal(err)
	}
	c.Reconcile() // absorbs the allocation news
	ct := &collectTracer{}
	c.SetTracer(ct)
	stats := c.Reconcile()
	if stats.Deaths != 0 || stats.Stale != 0 || stats.Fenced != 0 {
		t.Fatalf("quiescent reconcile = %+v", stats)
	}
	if len(ct.types()) != 0 {
		t.Fatalf("quiescent reconcile emitted %v", ct.types())
	}
	c.ReleaseAll(ctrs)
}

// StartReconciler drives rounds on the virtual clock.
func TestStartReconciler(t *testing.T) {
	clock := vtime.NewClock()
	c := New(clock, 2, 4, 8192)
	c.StartReconciler(10 * time.Second)
	c.StartReconciler(10 * time.Second) // idempotent

	if _, err := c.AllocateIn(nil, 1, 1, 512); err != nil {
		t.Fatal(err)
	}
	if err := c.PartitionNode("node1"); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode("node1", 0); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Second)
	if c.DriftObserved() == 0 {
		t.Fatal("scheduled reconcile did not observe drift")
	}
	if err := c.HealPartition("node1"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Second)
	if c.DeathsDetected() != 1 {
		t.Fatalf("DeathsDetected = %d", c.DeathsDetected())
	}
}

// Convergence storm: randomized allocate/release/partition/heal/fail/
// restore/reconcile sequences across seeds and GOMAXPROCS settings. The
// invariants must hold after every step, and once all partitions heal and a
// reconcile round runs, desired must equal actual exactly — and a second
// round must be a strict no-op.
func TestReconcilerConvergenceStorm(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/procs=%d", seed, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				r := rand.New(rand.NewSource(seed))
				clock := vtime.NewClock()
				const nodes = 6
				c := New(clock, nodes, 8, 16384)
				c.SetMaxStaleness(45 * time.Second)

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
						_ = c.PartitionNode(name())
					case 5:
						_ = c.HealPartition(name())
					case 6:
						_ = c.FailNode(name(), 0)
					case 7:
						_ = c.RestoreNode(name())
					case 8:
						c.PutCheckpoint(fmt.Sprintf("ckpt/%d", r.Intn(8)), "alg", r.Intn(5)+1, 10, []string{name()}, r.Intn(2) == 0)
					case 9:
						c.Reconcile()
						clock.Advance(time.Duration(r.Intn(20)+1) * time.Second)
					}
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}

				// Quiesce: heal every partition, restore every dead node,
				// reconcile, and demand exact convergence.
				for i := 0; i < nodes; i++ {
					_ = c.HealPartition(fmt.Sprintf("node%d", i))
				}
				c.Reconcile()
				for _, n := range c.Nodes() {
					if !n.Healthy() {
						if err := c.RestoreNode(n.Name); err != nil {
							t.Fatal(err)
						}
					}
				}
				c.Reconcile()
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if d := c.DesiredActualDiff(); d != 0 {
					t.Fatalf("DesiredActualDiff after quiescence = %d", d)
				}
				if stats := c.Reconcile(); stats.Deaths != 0 || stats.Fenced != 0 || stats.Stale != 0 || stats.Restores != 0 {
					t.Fatalf("post-quiescence reconcile not a no-op: %+v", stats)
				}
			})
		}
	}
}

// Concurrent storm: allocators, partition flappers, failure injectors and
// reconcile rounds hammer the cluster from separate goroutines (run under
// -race in CI). Afterwards the cluster must still quiesce to desired ==
// actual.
func TestReconcilerConcurrentStorm(t *testing.T) {
	const nodes = 6
	clock := vtime.NewClock()
	c := New(clock, nodes, 8, 16384)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			name := func() string { return fmt.Sprintf("node%d", r.Intn(nodes)) }
			for i := 0; i < 150; i++ {
				switch r.Intn(6) {
				case 0:
					if ctrs, err := c.AllocateIn(nil, r.Intn(2)+1, 1, 512); err == nil {
						c.ReleaseAll(ctrs)
					}
				case 1:
					_ = c.PartitionNode(name())
				case 2:
					_ = c.HealPartition(name())
				case 3:
					_ = c.FailNode(name(), 0)
					_ = c.RestoreNode(name())
				case 4:
					c.Reconcile()
				case 5:
					c.AgentReports()
					c.DesiredActualDiff()
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < nodes; i++ {
		_ = c.HealPartition(fmt.Sprintf("node%d", i))
	}
	c.Reconcile()
	for _, n := range c.Nodes() {
		if !n.Healthy() {
			if err := c.RestoreNode(n.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Reconcile()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d := c.DesiredActualDiff(); d != 0 {
		t.Fatalf("DesiredActualDiff after concurrent storm = %d", d)
	}
}

// naiveReconcile is the round Cluster.Reconcile replaced, kept as the test
// oracle: every fresh agent's full report read twice and its placements and
// replicas fenced every round, whether or not anything moved.
func naiveReconcile(c *Cluster) ReconcileStats {
	now := c.clock.Now()
	var stats ReconcileStats
	var events []trace.Event

	c.mu.Lock()
	for _, name := range c.order {
		n := c.nodes[name]
		stats.Agents++
		rep := n.ag.Report()

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
		if rep.Seq != n.lastSeq || rep.Incarnation != n.lastIncarnation {
			events = append(events, trace.Event{
				Type: trace.EvAgentReport, Node: name,
				Fields: map[string]float64{
					"seq":         float64(rep.Seq),
					"incarnation": float64(rep.Incarnation),
					"usedCores":   float64(rep.UsedCores),
					"usedMemMB":   float64(rep.UsedMemMB),
					"containers":  float64(len(rep.Containers)),
				},
			})
		}
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
		if rep.Healthy && !n.healthy {
			c.setHealthLocked(n, true)
			stats.Restores++
			events = append(events, trace.Event{
				Type: trace.EvNodeRestore, Node: name,
				Fields: map[string]float64{"detected": 1},
			})
		}
		stats.Fenced += c.fenceLocked(n)
		end := n.ag.Report()
		n.lastSeq, n.lastIncarnation = end.Seq, end.Incarnation
	}
	c.mu.Unlock()

	for _, ev := range events {
		c.emit(ev)
	}
	return stats
}

// reconcileSide is one cluster of the differential pair: same op stream,
// its own clock, tracer and containers.
type reconcileSide struct {
	c         *Cluster
	clock     *vtime.Clock
	ct        *collectTracer
	reconcile func() ReconcileStats
	live      []*Container
}

func newReconcileSide(naive bool) *reconcileSide {
	s := &reconcileSide{clock: vtime.NewClock(), ct: &collectTracer{}}
	s.c = New(s.clock, 6, 8, 16384)
	s.c.SetTracer(s.ct)
	s.c.SetMaxStaleness(45 * time.Second)
	s.reconcile = s.c.Reconcile
	if naive {
		s.reconcile = func() ReconcileStats { return naiveReconcile(s.c) }
	}
	return s
}

// step applies one op of the convergence storm's mix. Besides the legacy
// paths (which keep both views in lockstep) it reaches the agent directly —
// a container dying on its own, a replica lost off the disk — the drift only
// a fence that still runs when it must would repair.
func (s *reconcileSide) step(op, arg int) (stats ReconcileStats, reconciled bool) {
	c := s.c
	node := fmt.Sprintf("node%d", arg%6)
	switch op {
	case 0, 1, 2:
		if ctrs, err := c.AllocateIn(nil, arg%3+1, arg%3+1, (arg%4+1)*512); err == nil {
			s.live = append(s.live, ctrs...)
		}
	case 3:
		kept := s.live[:0]
		for _, ctr := range s.live {
			if !ctr.Lost() {
				kept = append(kept, ctr)
			}
		}
		s.live = kept
		if len(s.live) > 0 {
			j := arg % len(s.live)
			c.Release(s.live[j])
			s.live = append(s.live[:j], s.live[j+1:]...)
		}
	case 4:
		_ = c.PartitionNode(node)
	case 5:
		_ = c.HealPartition(node)
	case 6:
		_ = c.FailNode(node, 0)
	case 7:
		_ = c.RestoreNode(node)
	case 8:
		c.PutCheckpoint(fmt.Sprintf("ckpt/%d", arg%8), "alg", arg%5+1, 10, []string{node}, arg&0x80 != 0)
	case 9:
		c.ClearCheckpoint(fmt.Sprintf("ckpt/%d", arg%8))
	case 10:
		_ = c.SetNodeHealth(node, arg&0x80 != 0)
	case 11:
		c.nodes[node].ag.AddReplica(fmt.Sprintf("ckpt/%d", arg%8)) // a copy the metadata never listed
	default:
		stats, reconciled = s.reconcile(), true
		s.clock.Advance(time.Duration(arg%20+1) * time.Second)
	}
	return stats, reconciled
}

// The round that reads a header and skips an agent nothing happened to is
// indistinguishable from the round that re-reads and re-fences everything:
// same stats every round, same events, same agents and desired state after.
func TestReconcileMatchesNaive(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337, 2015} {
		r := rand.New(rand.NewSource(seed))
		fast, naive := newReconcileSide(false), newReconcileSide(true)
		for i := 0; i < 600; i++ {
			op, arg := r.Intn(16), r.Intn(256)
			fs, reconciled := fast.step(op, arg)
			ns, _ := naive.step(op, arg)
			if fs != ns {
				t.Fatalf("seed %d step %d: stats %+v, naive %+v", seed, i, fs, ns)
			}
			if !reconciled {
				continue
			}
			if !reflect.DeepEqual(fast.ct.evs, naive.ct.evs) {
				t.Fatalf("seed %d step %d: events diverge:\n%v\nnaive:\n%v", seed, i, fast.ct.evs, naive.ct.evs)
			}
			if f, n := fast.c.AgentReports(), naive.c.AgentReports(); !reflect.DeepEqual(f, n) {
				t.Fatalf("seed %d step %d: agent reports %+v, naive %+v", seed, i, f, n)
			}
			if f, n := fast.c.DesiredActualDiff(), naive.c.DesiredActualDiff(); f != n {
				t.Fatalf("seed %d step %d: DesiredActualDiff %d, naive %d", seed, i, f, n)
			}
			if f, n := fast.c.Checkpoints(), naive.c.Checkpoints(); f != n {
				t.Fatalf("seed %d step %d: %d checkpoints, naive %d", seed, i, f, n)
			}
			// Equal verdicts, not nil ones: a believed-dead node dying again
			// behind its partition leaves a checkpoint entry listing a replica
			// the disk lost, on both sides alike.
			if f, n := fmt.Sprint(fast.c.CheckInvariants()), fmt.Sprint(naive.c.CheckInvariants()); f != n {
				t.Fatalf("seed %d step %d: CheckInvariants %s, naive %s", seed, i, f, n)
			}
		}
		if len(fast.ct.evs) == 0 {
			t.Fatalf("seed %d: storm emitted no reconcile events", seed)
		}
	}
}

// A round over a cluster nothing happened to builds no report and sorts no
// placement or replica list.
func TestReconcileQuiescentAllocatesNothing(t *testing.T) {
	c := New(vtime.NewClock(), 16, 2, 3456)
	if _, err := c.AllocateIn(nil, 8, 1, 512); err != nil {
		t.Fatal(err)
	}
	c.PutCheckpoint("ckpt/0", "alg", 3, 10, []string{"node1", "node2"}, false)
	c.Reconcile() // absorbs the news
	if n := testing.AllocsPerRun(100, func() { c.Reconcile() }); n != 0 {
		t.Fatalf("quiescent reconcile allocates %v times, want 0", n)
	}
}
