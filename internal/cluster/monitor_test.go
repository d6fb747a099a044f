package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/vtime"
)

// Regression: a subscription removed from inside another OnChange callback
// of the same poll must not fire in that poll (or ever after). The old
// implementation fired from a snapshot taken before the callbacks ran, so a
// removal during the round was silently ignored until the next one.
func TestMonitorOnChangeRemovalDuringPoll(t *testing.T) {
	clock := vtime.NewClock()
	c := New(clock, 2, 2, 4096)
	m := NewMonitor(c, nil, 10*time.Second)
	m.Poll() // seed the board so the next poll reports a change

	var fired []string
	var removeB func()
	m.OnChange(func() {
		fired = append(fired, "a")
		removeB()
	})
	removeB = m.OnChange(func() { fired = append(fired, "b") })

	if err := c.SetNodeHealth("node1", false); err != nil {
		t.Fatal(err)
	}
	if !m.Poll() {
		t.Fatal("health flip not observed")
	}
	if len(fired) != 1 || fired[0] != "a" {
		t.Fatalf("callbacks fired %v, want [a] (b was removed mid-poll)", fired)
	}

	// And b stays gone on later polls too.
	if err := c.SetNodeHealth("node1", true); err != nil {
		t.Fatal(err)
	}
	m.Poll()
	if len(fired) != 2 || fired[1] != "a" {
		t.Fatalf("callbacks fired %v, want [a a]", fired)
	}
}

// The monitor's node board is fed by the node records: a crash shows at the
// next poll, and so does the restore.
func TestMonitorReadsNodeHealth(t *testing.T) {
	clock := vtime.NewClock()
	c := New(clock, 2, 2, 4096)
	env := engine.NewDefaultEnvironment(1)
	m := NewMonitor(c, env, 10*time.Second)
	m.Poll()

	if !m.NodeHealthy("node1") {
		t.Fatal("initial board shows node1 down")
	}
	if err := c.FailNode("node1", 0); err != nil {
		t.Fatal(err)
	}
	if !m.Poll() {
		t.Fatal("crash not observed")
	}
	if m.NodeHealthy("node1") || !m.NodeHealthy("node0") {
		t.Fatal("board does not show the crash on node1 alone")
	}
	if err := c.RestoreNode("node1"); err != nil {
		t.Fatal(err)
	}
	if !m.Poll() {
		t.Fatal("restore not observed")
	}
	if !m.NodeHealthy("node1") {
		t.Fatal("board does not show the restore")
	}
}

// naivePoll is the whole-board poll Monitor.Poll replaced, kept as the test
// oracle: every node and the whole engine list re-read every round. Only
// the firing of the callbacks, which did not change, is shared.
func naivePoll(m *Monitor) bool {
	m.cluster.RunHealthChecks()
	nodes := m.cluster.Snapshot()

	m.mu.Lock()
	changed := false
	for _, n := range nodes {
		if prev, seen := m.nodeHealth[n.Name]; !seen || prev != n.Healthy() {
			changed = true
		}
		m.nodeHealth[n.Name] = n.Healthy()
	}
	if m.env != nil {
		for _, name := range m.env.Engines() {
			on := m.env.Available(name)
			if prev, seen := m.services[name]; !seen || prev != on {
				changed = true
			}
			m.services[name] = on
		}
	}
	if changed {
		m.polls.Changed++
	} else {
		m.polls.Refreshed++
	}
	cbs := append([]monitorCB{}, m.onChange...)
	m.mu.Unlock()
	if changed {
		m.fire(cbs)
	}
	return changed
}

// pollSide is one monitor of the differential pair with its subscribers:
// fired logs callback indices in firing order, removers holds every
// subscription's deregistration by index.
type pollSide struct {
	m        *Monitor
	poll     func() bool
	fired    []int
	removers []func()
}

// subscribe registers callback k, which logs itself and deregisters a later
// peer (if that peer exists yet) from inside the round.
func (s *pollSide) subscribe() {
	k := len(s.removers)
	s.removers = append(s.removers, s.m.OnChange(func() {
		s.fired = append(s.fired, k)
		if peer := k + 1 + k%3; k%2 == 0 && peer < len(s.removers) {
			s.removers[peer]()
		}
	}))
}

const monitorStormNodes = 6

// runMonitorOps drives one cluster and environment through the op stream —
// two bytes an op: kind (a third of the kinds poll, so quiet stretches — the
// fast path — and busy ones both occur), argument — with the production monitor and the
// naive oracle watching side by side, and demands after every step the same
// poll verdicts, tick counts, board, engine list and callback firing order.
// It returns the production monitor's poll outcomes.
func runMonitorOps(t *testing.T, ops []byte) PollStats {
	t.Helper()
	clock := vtime.NewClock()
	c := New(clock, monitorStormNodes, 4, 8192)
	env := engine.NewDefaultEnvironment(1)
	engines := env.Engines()
	fast := &pollSide{m: NewMonitor(c, env, 10*time.Second)}
	fast.poll = fast.m.Poll
	naive := &pollSide{m: NewMonitor(c, env, 10*time.Second)}
	naive.poll = func() bool { return naivePoll(naive.m) }
	var live []*Container

	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%18, int(ops[i+1])
		node := fmt.Sprintf("node%d", arg%monitorStormNodes)
		key := fmt.Sprintf("ckpt/%d", arg%4)
		switch op {
		case 0:
			if ctrs, err := c.AllocateIn(nil, arg%3+1, 1, 512); err == nil {
				live = append(live, ctrs...)
			}
		case 1:
			if len(live) > 0 {
				j := arg % len(live)
				c.Release(live[j])
				live = append(live[:j], live[j+1:]...)
			}
		case 2:
			if r, err := c.Reserve(1); err == nil { // a lease revoked with its container
				_, _ = c.AllocateIn(r, 1, 1, 512)
				c.RevokeReservation(r)
			}
		case 3:
			_ = c.FailNode(node, 0)
		case 4:
			_ = c.RestoreNode(node)
		case 5:
			_ = c.SetNodeHealth(node, arg&0x80 != 0)
		case 6:
			c.PutCheckpoint(key, "alg", arg%9+1, 10, []string{node}, false)
		case 7:
			c.ClearCheckpoint(key)
		case 8:
			env.SetAvailable(engines[arg%len(engines)], arg&0x80 != 0)
		case 9:
			env.Register(engine.Profile{Name: fmt.Sprintf("extra%d", arg%3)})
		case 10:
			if arg%4 == 0 {
				c.SetHealthScript(func(n *Node) bool { return n.Name != node })
			} else {
				c.SetHealthScript(nil)
			}
		case 11:
			// Bounded: a changed poll re-checks every subscriber's liveness
			// against the list, quadratic in subscribers.
			if len(fast.removers) < 32 {
				fast.subscribe()
				naive.subscribe()
			}
		default:
			first, second := fast, naive
			if arg&1 == 1 {
				first, second = naive, fast
			}
			if a, b := first.poll(), second.poll(); a != b {
				t.Fatalf("op %d: poll verdicts differ: fast first=%v: %v then %v", i/2, first == fast, a, b)
			}
		}

		if f, n := fast.m.Ticks(), naive.m.Ticks(); f != n {
			t.Fatalf("op %d: Ticks %d, naive %d", i/2, f, n)
		}
		for j := 0; j < monitorStormNodes; j++ {
			name := fmt.Sprintf("node%d", j)
			if f, n := fast.m.NodeHealthy(name), naive.m.NodeHealthy(name); f != n {
				t.Fatalf("op %d: NodeHealthy(%s) = %v, naive %v", i/2, name, f, n)
			}
		}
		if f, n := fast.m.AvailableEngines(), naive.m.AvailableEngines(); !reflect.DeepEqual(f, n) {
			t.Fatalf("op %d: AvailableEngines = %v, naive %v", i/2, f, n)
		}
		for _, name := range env.Engines() {
			if f, n := fast.m.ServiceOn(name), naive.m.ServiceOn(name); f != n {
				t.Fatalf("op %d: ServiceOn(%s) = %v, naive %v", i/2, name, f, n)
			}
		}
		if !reflect.DeepEqual(fast.fired, naive.fired) {
			t.Fatalf("op %d: callbacks fired %v, naive %v", i/2, fast.fired, naive.fired)
		}
	}
	return fast.m.PollStats()
}

var monitorStormSeeds = []int64{1, 7, 42, 1337, 2015}

// monitorStormOps is a seeded op stream for runMonitorOps.
func monitorStormOps(seed int64) []byte {
	ops := make([]byte, 2*400)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// The poll that re-reads only what moved is indistinguishable from the
// whole-board poll under a storm of every mutation that can reach the board.
func TestMonitorPollMatchesNaive(t *testing.T) {
	var total PollStats
	for _, seed := range monitorStormSeeds {
		got := runMonitorOps(t, monitorStormOps(seed))
		total.Idle += got.Idle
		total.Refreshed += got.Refreshed
		total.Changed += got.Changed
	}
	if total.Idle == 0 || total.Refreshed == 0 || total.Changed == 0 {
		t.Fatalf("storm did not reach every poll outcome: %+v", total)
	}
}

func FuzzMonitorPoll(f *testing.F) {
	for _, seed := range monitorStormSeeds {
		f.Add(monitorStormOps(seed))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		runMonitorOps(t, ops)
	})
}

// A poll that notices nothing is a handful of loads: no node re-read, no
// engine list sorted, no callback slice copied.
func TestMonitorIdlePollAllocatesNothing(t *testing.T) {
	c := New(vtime.NewClock(), 16, 2, 3456)
	if _, err := c.AllocateIn(nil, 8, 1, 512); err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(c, engine.NewDefaultEnvironment(1), 10*time.Second)
	m.Poll() // the first poll sees everything as new
	m.OnChange(func() { t.Error("callback fired on an idle poll") })
	before := m.PollStats()
	if n := testing.AllocsPerRun(100, func() { m.Poll() }); n != 0 {
		t.Fatalf("idle poll allocates %v times, want 0", n)
	}
	after := m.PollStats()
	if after.Idle == before.Idle || after.Refreshed != before.Refreshed || after.Changed != before.Changed {
		t.Fatalf("idle polls counted as %+v after %+v", after, before)
	}
}

// Start arms one tick func and re-arms it every period.
func TestMonitorStartPollsEveryPeriod(t *testing.T) {
	clock := vtime.NewClock()
	c := New(clock, 2, 2, 4096)
	m := NewMonitor(c, nil, 10*time.Second)
	m.Start()
	m.Start() // idempotent
	clock.Advance(95 * time.Second)
	if got := m.Ticks(); got != 10 {
		t.Fatalf("Ticks after 95 s at a 10 s period = %d, want 10 (one at Start, nine on the clock)", got)
	}
	if clock.Pending() != 1 {
		t.Fatalf("%d timers pending, want the one re-armed tick", clock.Pending())
	}
}
