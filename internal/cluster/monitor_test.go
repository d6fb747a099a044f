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

	// A flip undone before the next poll never reaches the board: that poll
	// is idle and interrupts nothing. A flip that holds is changed at the
	// next poll instant, not before.
	changes, idle := m.Changes(), m.PollStats().Idle
	m.Start() // polls now, at 0 s, then every 10 s
	clock.Schedule(12*time.Second, func(time.Duration) { _ = c.SetNodeHealth("node0", false) })
	clock.Schedule(14*time.Second, func(time.Duration) { _ = c.SetNodeHealth("node0", true) })
	clock.Advance(20 * time.Second)
	if got := m.Changes(); got != changes {
		t.Fatalf("a flip undone within one period: Changes %d, want %d", got, changes)
	}
	if got := m.PollStats().Idle; got != idle+3 {
		t.Fatalf("idle polls at 0, 10 and 20 s: %d, want %d", got, idle+3)
	}
	clock.Schedule(25*time.Second, func(time.Duration) { _ = c.SetNodeHealth("node0", false) })
	clock.Advance(9 * time.Second)
	if got := m.Changes(); got != changes || !m.NodeHealthy("node0") {
		t.Fatalf("flip at 25 s shows before the 30 s poll: Changes %d, want %d", got, changes)
	}
	clock.Advance(time.Second)
	if got := m.Changes(); got != changes+1 || m.NodeHealthy("node0") {
		t.Fatalf("flip at 25 s not changed at the 30 s poll: Changes %d, want %d", got, changes+1)
	}
}

// naivePoll is the whole-board poll, kept as the test oracle: every node and
// the whole engine list re-read every round.
func naivePoll(m *Monitor) bool {
	nodes := m.cluster.Snapshot()

	m.mu.Lock()
	changed := false
	for i, n := range nodes {
		if m.board[i] != n.Healthy() {
			changed = true
		}
		m.board[i] = n.Healthy()
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
		m.polls.Idle++
	}
	m.mu.Unlock()
	return changed
}

const monitorStormNodes = 6

// runMonitorOps drives one cluster and environment through the op stream —
// two bytes an op: kind (six of the sixteen kinds poll, so quiet stretches —
// the fast path — and busy ones both occur), argument — with the production
// monitor and the naive oracle watching side by side, and demands after
// every step the same poll verdicts, tick counts, board and engine list, and
// a changed-poll count that moves by one exactly on the polls the oracle
// calls changed. It returns the production monitor's poll outcomes.
func runMonitorOps(t *testing.T, ops []byte) PollStats {
	t.Helper()
	clock := vtime.NewClock()
	c := New(clock, monitorStormNodes, 4, 8192)
	env := engine.NewDefaultEnvironment(1)
	engines := env.Engines()
	fast := NewMonitor(c, env, 10*time.Second)
	naive := NewMonitor(c, env, 10*time.Second)
	var live []*Container

	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%16, int(ops[i+1])
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
		default:
			before := fast.Changes()
			var f, n bool
			if arg&1 == 1 {
				n, f = naivePoll(naive), fast.Poll()
			} else {
				f, n = fast.Poll(), naivePoll(naive)
			}
			if f != n {
				t.Fatalf("op %d: poll verdicts differ: fast first=%v: fast %v, naive %v", i/2, arg&1 == 0, f, n)
			}
			want := before
			if n {
				want++
			}
			if got := fast.Changes(); got != want {
				t.Fatalf("op %d: changed polls %d after %d, want %d (naive changed=%v)", i/2, got, before, want, n)
			}
		}

		if f, n := fast.Changes(), naive.Changes(); f != n {
			t.Fatalf("op %d: Changes %d, naive %d", i/2, f, n)
		}
		if f, n := fast.Ticks(), naive.Ticks(); f != n {
			t.Fatalf("op %d: Ticks %d, naive %d", i/2, f, n)
		}
		for j := 0; j < monitorStormNodes; j++ {
			name := fmt.Sprintf("node%d", j)
			if f, n := fast.NodeHealthy(name), naive.NodeHealthy(name); f != n {
				t.Fatalf("op %d: NodeHealthy(%s) = %v, naive %v", i/2, name, f, n)
			}
		}
		if f, n := fast.AvailableEngines(), naive.AvailableEngines(); !reflect.DeepEqual(f, n) {
			t.Fatalf("op %d: AvailableEngines = %v, naive %v", i/2, f, n)
		}
		for _, name := range env.Engines() {
			if f, n := fast.ServiceOn(name), naive.ServiceOn(name); f != n {
				t.Fatalf("op %d: ServiceOn(%s) = %v, naive %v", i/2, name, f, n)
			}
		}
	}
	return fast.PollStats()
}

var monitorStormSeeds = []int64{1, 7, 42, 1337, 2015}

// monitorStormOps is a seeded op stream for runMonitorOps.
func monitorStormOps(seed int64) []byte {
	ops := make([]byte, 2*400)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// The poll that re-reads the engine list only when its generation moved is
// indistinguishable from the whole-board poll under a storm of every
// mutation that can reach the board.
func TestMonitorPollMatchesNaive(t *testing.T) {
	var total PollStats
	for _, seed := range monitorStormSeeds {
		got := runMonitorOps(t, monitorStormOps(seed))
		total.Idle += got.Idle
		total.Changed += got.Changed
	}
	if total.Idle == 0 || total.Changed == 0 {
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

// A poll that notices nothing is a handful of loads: one health flag per
// node, no engine list sorted, no clock interrupted.
func TestMonitorIdlePollAllocatesNothing(t *testing.T) {
	clock := vtime.NewClock()
	c := New(clock, 16, 2, 3456)
	if _, err := c.AllocateIn(nil, 8, 1, 512); err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(c, engine.NewDefaultEnvironment(1), 10*time.Second)
	m.Poll() // the first poll sees everything as new
	before := m.PollStats()
	if n := testing.AllocsPerRun(100, func() { m.Poll() }); n != 0 {
		t.Fatalf("idle poll allocates %v times, want 0", n)
	}
	after := m.PollStats()
	if after.Idle == before.Idle || after.Changed != before.Changed {
		t.Fatalf("idle polls counted as %+v after %+v", after, before)
	}

	// Driven by the clock, the poll re-arms its one event: still nothing.
	m.Start()
	before = m.PollStats()
	if n := testing.AllocsPerRun(100, func() { clock.Advance(10 * time.Second) }); n != 0 {
		t.Fatalf("an idle poll on the clock allocates %v times, want 0", n)
	}
	after = m.PollStats()
	if after.Idle-before.Idle != 101 || after.Changed != before.Changed || clock.Pending() != 1 {
		t.Fatalf("101 clock periods counted as %+v after %+v, %d events pending", after, before, clock.Pending())
	}
}

// Start arms one clock event and re-arms it every period.
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
