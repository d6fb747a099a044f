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

// twoNodesWithWorkOnNode1 returns a reconciled two-node cluster holding two
// containers, one of them on node1.
func twoNodesWithWorkOnNode1(t *testing.T, clock *vtime.Clock) (*Cluster, *Container) {
	t.Helper()
	c := New(clock, 2, 4, 8192)
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
	c.Reconcile() // absorbs the allocation news
	return c, onNode1
}

// An agent that marks itself unhealthy without the control plane being told
// dies silently — no events, no desired-state invalidation — until the next
// reconcile round reads its report and detects the death. When the agent
// heals (marks itself healthy again), the next round restores belief.
func TestSilentDeathDetectedAfterHeal(t *testing.T) {
	c, onNode1 := twoNodesWithWorkOnNode1(t, vtime.NewClock())
	ct := &collectTracer{}
	c.SetTracer(ct)

	ag := c.nodes["node1"].ag
	ag.SetHealthy(false)
	if onNode1.Lost() || !c.Nodes()[1].Healthy() {
		t.Fatal("the control plane acted before reading the report")
	}
	if len(ct.types()) != 0 {
		t.Fatalf("silent death emitted %v before detection", ct.types())
	}
	stats := c.Reconcile()
	if stats.Deaths != 1 || stats.Lost != 1 || stats.Fenced != 1 || stats.Restores != 0 {
		t.Fatalf("reconcile after the agent's health collapse = %+v", stats)
	}
	if !onNode1.Lost() || c.Nodes()[1].Healthy() || ag.Hosts(onNode1.ID) {
		t.Fatal("detected death left the container or the belief in place")
	}
	if c.DeathsDetected() != 1 {
		t.Fatalf("DeathsDetected = %d", c.DeathsDetected())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d := c.DesiredActualDiff(); d != 0 {
		t.Fatalf("DesiredActualDiff after fencing = %d", d)
	}

	ag.SetHealthy(true)
	if stats := c.Reconcile(); stats.Restores != 1 || stats.Deaths != 0 {
		t.Fatalf("reconcile after recovery = %+v", stats)
	}
	// An agent that died and was reborn between two rounds reads as a death
	// (the incarnation moved) and a recovery in the same round.
	node0 := c.nodes["node0"].ag
	node0.Fail()
	node0.Restore()
	if stats := c.Reconcile(); stats.Deaths != 1 || stats.Lost != 1 || stats.Restores != 1 {
		t.Fatalf("reconcile after an unseen rebirth = %+v", stats)
	}
	want := map[trace.EventType]int{trace.EvAgentReport: 3, trace.EvNodeCrash: 2, trace.EvNodeRestore: 2}
	got := map[trace.EventType]int{}
	for _, typ := range ct.types() {
		got[typ]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events %v, want counts %v", ct.types(), want)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d := c.DesiredActualDiff(); d != 0 {
		t.Fatalf("DesiredActualDiff after recovery = %d", d)
	}
	// Capacity on the recovered nodes is allocatable again.
	if _, err := c.AllocateIn(nil, 2, 4, 2048); err != nil {
		t.Fatal(err)
	}
}

// There is no staleness bound: however long a node stays quiet, a round
// declares no death without a report saying so. Once the agent does report
// itself unhealthy, the container it still runs is fenced as a zombie, once;
// after recovery the node's capacity is allocatable again.
func TestStalenessBoundAndZombieFencing(t *testing.T) {
	clock := vtime.NewClock()
	c, onNode1 := twoNodesWithWorkOnNode1(t, clock)
	clock.Advance(time.Hour)
	if stats := c.Reconcile(); stats.Deaths != 0 || stats.Fenced != 0 {
		t.Fatalf("a quiet node was declared dead by age: %+v", stats)
	}

	ag := c.nodes["node1"].ag
	ag.SetHealthy(false)
	if stats := c.Reconcile(); stats.Deaths != 1 || stats.Fenced != 1 {
		t.Fatalf("reconcile after the agent's health collapse = %+v", stats)
	}
	if ag.Hosts(onNode1.ID) {
		t.Fatal("the zombie container survived fencing")
	}
	if d := c.DesiredActualDiff(); d != 0 {
		t.Fatalf("DesiredActualDiff after fencing = %d", d)
	}
	// Re-reconciling the same dead report declares and fences nothing again.
	if stats := c.Reconcile(); stats.Deaths != 0 || stats.Fenced != 0 {
		t.Fatalf("repeated declaration: %+v", stats)
	}

	ag.SetHealthy(true)
	if stats := c.Reconcile(); stats.Restores != 1 || stats.Fenced != 0 {
		t.Fatalf("reconcile after recovery = %+v", stats)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d := c.DesiredActualDiff(); d != 0 {
		t.Fatalf("DesiredActualDiff after recovery = %d", d)
	}
	// node0 still holds its container, so four free cores exist only on the
	// recovered node1.
	if _, err := c.AllocateIn(nil, 1, 4, 2048); err != nil {
		t.Fatal(err)
	}
}

// A reconcile round over a quiescent cluster observes nothing: no events, no
// deaths, desired == actual. This is the property that keeps golden traces of
// scenarios that never reconcile byte-identical.
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
	if stats.Deaths != 0 || stats.Restores != 0 || stats.Fenced != 0 {
		t.Fatalf("quiescent reconcile = %+v", stats)
	}
	if len(ct.types()) != 0 {
		t.Fatalf("quiescent reconcile emitted %v", ct.types())
	}
	c.ReleaseAll(ctrs)
}

// Convergence storm: randomized allocate/release/agent health flip/fail/
// restore/reconcile sequences across seeds and GOMAXPROCS settings. The
// invariants must hold after every step, and once a reconcile round runs and
// every dead node is restored, desired must equal actual exactly — and a
// second round must be a strict no-op.
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
						c.nodes[name()].ag.SetHealthy(false)
					case 5:
						c.nodes[name()].ag.SetHealthy(true)
					case 6:
						_ = c.FailNode(name(), 0)
					case 7:
						_ = c.RestoreNode(name())
					case 8:
						c.PutCheckpoint(fmt.Sprintf("ckpt/%d", r.Intn(8)), "alg", r.Intn(5)+1, 10, []string{name()}, r.Intn(2) == 0)
					case 9:
						c.Reconcile()
					}
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}

				// Quiesce: reconcile, restore every dead node, reconcile, and
				// demand exact convergence.
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
				if stats := c.Reconcile(); stats.Deaths != 0 || stats.Fenced != 0 || stats.Restores != 0 {
					t.Fatalf("post-quiescence reconcile not a no-op: %+v", stats)
				}
			})
		}
	}
}

// Concurrent storm: allocators, agent health flappers, failure injectors and
// reconcile rounds hammer the cluster from separate goroutines (run under
// -race in CI). Afterwards the cluster must still quiesce to desired ==
// actual.
func TestReconcilerConcurrentStorm(t *testing.T) {
	const nodes = 6
	c := New(vtime.NewClock(), nodes, 8, 16384)
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
					c.nodes[name()].ag.SetHealthy(false)
				case 2:
					c.nodes[name()].ag.SetHealthy(true)
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
// oracle: every agent's full report read twice and its placements and
// replicas fenced every round, whether or not anything moved.
func naiveReconcile(c *Cluster) ReconcileStats {
	var stats ReconcileStats
	var events []trace.Event

	c.mu.Lock()
	for _, name := range c.order {
		n := c.nodes[name]
		stats.Agents++
		rep := n.ag.Report()

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
// its own tracer and containers.
type reconcileSide struct {
	c         *Cluster
	ct        *collectTracer
	reconcile func() ReconcileStats
	live      []*Container
}

func newReconcileSide(naive bool) *reconcileSide {
	s := &reconcileSide{ct: &collectTracer{}}
	s.c = New(vtime.NewClock(), 6, 8, 16384)
	s.c.SetTracer(s.ct)
	s.reconcile = s.c.Reconcile
	if naive {
		s.reconcile = func() ReconcileStats { return naiveReconcile(s.c) }
	}
	return s
}

// step applies one op of the convergence storm's mix. Besides the
// control-plane paths (which keep both views in lockstep) it reaches the
// agent directly — the daemon flipping its own health, a replica copy the
// metadata never listed — the drift only a round that still reads and fences
// when it must would repair.
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
		c.nodes[node].ag.SetHealthy(false)
	case 5:
		c.nodes[node].ag.SetHealthy(true)
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
	}
	return stats, reconciled
}

// The round that reads a header and skips an agent nothing happened to is
// indistinguishable from the round that re-reads and re-fences everything:
// same stats every round, same events, same agents and desired state after,
// and both clusters consistent after every step. The storm must reach
// detected deaths, restores and fences, or the comparison proves nothing.
func TestReconcileMatchesNaive(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337, 2015} {
		r := rand.New(rand.NewSource(seed))
		fast, naive := newReconcileSide(false), newReconcileSide(true)
		var total ReconcileStats
		for i := 0; i < 600; i++ {
			op, arg := r.Intn(16), r.Intn(256)
			fs, reconciled := fast.step(op, arg)
			ns, _ := naive.step(op, arg)
			if fs != ns {
				t.Fatalf("seed %d step %d: stats %+v, naive %+v", seed, i, fs, ns)
			}
			total.Deaths += fs.Deaths
			total.Restores += fs.Restores
			total.Fenced += fs.Fenced
			if err := fast.c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
			if err := naive.c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: naive: %v", seed, i, err)
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
		}
		if total.Deaths == 0 || total.Restores == 0 || total.Fenced == 0 {
			t.Fatalf("seed %d: storm detected %d deaths, %d restores, %d fences; want each > 0",
				seed, total.Deaths, total.Restores, total.Fenced)
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
