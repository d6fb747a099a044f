package scheduler

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/cluster"
	"github.com/asap-project/ires/internal/executor"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/vtime"
	"github.com/asap-project/ires/internal/workflow"
)

// span records one stub execution's observable lifetime.
type span struct {
	runID string
	nodes int
	start time.Duration
	end   time.Duration
}

// stubExec simulates dur of virtual work in steps, checking the cancel probe
// between steps like the real executor's decision points.
type stubExec struct {
	clock    *vtime.Clock
	party    *vtime.Party
	lease    *cluster.Reservation
	canceled func() bool
	runID    string
	dur      time.Duration
	steps    int

	mu    *sync.Mutex
	spans *[]span
}

func (e *stubExec) Execute(g *workflow.Graph, plan *planner.Plan) (*executor.Result, error) {
	start := e.clock.Now()
	step := e.dur / time.Duration(e.steps)
	for i := 0; i < e.steps; i++ {
		if e.canceled() {
			return nil, executor.ErrCanceled
		}
		e.party.WaitUntil(e.clock.Now() + step)
	}
	e.mu.Lock()
	*e.spans = append(*e.spans, span{runID: e.runID, nodes: e.lease.Size(), start: start, end: e.clock.Now()})
	e.mu.Unlock()
	return &executor.Result{}, nil
}

// testRig wires a scheduler whose executors are stubs with per-workflow
// durations (keyed by graph target).
type testRig struct {
	clock *vtime.Clock
	clu   *cluster.Cluster
	sched *Scheduler
	mu    sync.Mutex
	spans []span
	durs  map[string]time.Duration
}

func newRig(t *testing.T, nodes int, policy Policy, durs map[string]time.Duration) *testRig {
	t.Helper()
	rig := &testRig{clock: vtime.NewClock(), durs: durs}
	rig.clu = cluster.New(rig.clock, nodes, 8, 16384)
	var err error
	rig.sched, err = New(Config{
		Clock:   rig.clock,
		Cluster: rig.clu,
		Policy:  policy,
		Plan: func(g *workflow.Graph) (*planner.Plan, error) {
			return &planner.Plan{Target: g.Target}, nil
		},
		NewExecutor: func(ctx ExecContext) Exec {
			rig.mu.Lock()
			dur := rig.durs[ctx.RunID]
			rig.mu.Unlock()
			if dur == 0 {
				dur = 10 * time.Second
			}
			return &stubExec{
				clock: rig.clock, party: ctx.Party, lease: ctx.Lease, canceled: ctx.Canceled,
				runID: ctx.RunID, dur: dur, steps: 4,
				mu: &rig.mu, spans: &rig.spans,
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

func graph(name string) *workflow.Graph {
	g := workflow.NewGraph()
	g.Target = name
	return g
}

// FIFO serializes runs in submission order, each leasing the whole cluster.
func TestFIFOSerializesInOrder(t *testing.T) {
	rig := newRig(t, 4, FIFO{}, map[string]time.Duration{
		"run-001": 30 * time.Second,
		"run-002": 10 * time.Second,
		"run-003": 20 * time.Second,
	})
	var runs []*Run
	for i := 1; i <= 3; i++ {
		runs = append(runs, rig.sched.Submit(graph(fmt.Sprintf("wf%d", i))))
	}
	rig.sched.Drain()
	for _, r := range runs {
		if _, _, err := r.Wait(); err != nil {
			t.Fatalf("%s: %v", r.ID(), err)
		}
	}
	if len(rig.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(rig.spans))
	}
	for i, sp := range rig.spans {
		if want := fmt.Sprintf("run-%03d", i+1); sp.runID != want {
			t.Fatalf("completion order[%d] = %s, want %s (FIFO must preserve submission order)", i, sp.runID, want)
		}
		if sp.nodes != 4 {
			t.Fatalf("%s leased %d nodes, want the whole 4-node cluster", sp.runID, sp.nodes)
		}
		if i > 0 && sp.start < rig.spans[i-1].end {
			t.Fatalf("%s started at %v before %s ended at %v (FIFO runs must not overlap)",
				sp.runID, sp.start, rig.spans[i-1].runID, rig.spans[i-1].end)
		}
	}
	// Serialized makespan: 30 + 10 + 20.
	if now := rig.clock.Now(); now != 60*time.Second {
		t.Fatalf("final virtual time = %v, want 60s", now)
	}
}

// FairShare overlaps up to K runs on half-cluster leases, finishing a
// contended batch sooner than FIFO would.
func TestFairShareOverlaps(t *testing.T) {
	durs := map[string]time.Duration{
		"run-001": 20 * time.Second,
		"run-002": 20 * time.Second,
		"run-003": 20 * time.Second,
		"run-004": 20 * time.Second,
	}
	rig := newRig(t, 4, FairShare{MaxConcurrent: 2}, durs)
	for i := 1; i <= 4; i++ {
		rig.sched.Submit(graph(fmt.Sprintf("wf%d", i)))
	}
	rig.sched.Drain()
	if len(rig.spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(rig.spans))
	}
	overlapped := false
	for i, a := range rig.spans {
		if a.nodes != 2 {
			t.Fatalf("%s leased %d nodes, want 2 (4 nodes / 2 slots)", a.runID, a.nodes)
		}
		for _, b := range rig.spans[i+1:] {
			if a.start < b.end && b.start < a.end {
				overlapped = true
			}
		}
	}
	if !overlapped {
		t.Fatal("no two fair-share runs overlapped in virtual time")
	}
	// Two waves of two concurrent 20s runs: 40s total, vs 80s serialized.
	if now := rig.clock.Now(); now != 40*time.Second {
		t.Fatalf("final virtual time = %v, want 40s", now)
	}
}

// A run canceled while queued never executes; Wait returns ErrCanceled.
func TestCancelQueued(t *testing.T) {
	rig := newRig(t, 4, FIFO{}, map[string]time.Duration{"run-001": 50 * time.Second})
	first := rig.sched.Submit(graph("long"))
	second := rig.sched.Submit(graph("victim"))
	if got := rig.sched.QueueDepth(); got != 1 {
		t.Fatalf("queue depth = %d, want 1 (second run held by FIFO)", got)
	}
	second.Cancel()
	if _, _, err := second.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled queued run: err = %v", err)
	}
	if st := second.Status(); st.Status != "canceled" {
		t.Fatalf("status = %s, want canceled", st.Status)
	}
	if _, _, err := first.Wait(); err != nil {
		t.Fatalf("unaffected run failed: %v", err)
	}
	for _, sp := range rig.spans {
		if sp.runID == "run-002" {
			t.Fatal("canceled queued run executed anyway")
		}
	}
}

// A running run cancels at its next decision point and releases its lease so
// successors still admit.
func TestCancelRunning(t *testing.T) {
	rig := newRig(t, 4, FIFO{}, map[string]time.Duration{
		"run-001": 40 * time.Second,
		"run-002": 10 * time.Second,
	})
	victim := rig.sched.Submit(graph("victim"))
	successor := rig.sched.Submit(graph("next"))
	// Cancel mid-flight, deterministically: a virtual-time event at 15s
	// flips the flag, and the stub polls the probe at its next 10s step.
	rig.clock.Schedule(15*time.Second, func(time.Duration) { victim.Cancel() })
	rig.sched.Start()
	if _, _, err := victim.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled running run: err = %v", err)
	}
	if _, _, err := successor.Wait(); err != nil {
		t.Fatalf("successor after cancellation: %v", err)
	}
	if got := rig.clu.ReservedNodes(); got != 0 {
		t.Fatalf("%d nodes still reserved after drain", got)
	}
	if err := rig.clu.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Submissions arriving while earlier runs execute are admitted as capacity
// frees, and Drain covers them.
func TestSubmitWhileDraining(t *testing.T) {
	rig := newRig(t, 4, FairShare{MaxConcurrent: 2}, nil)
	rig.sched.Submit(graph("a"))
	rig.sched.Submit(graph("b"))
	rig.sched.Start()
	late := rig.sched.Submit(graph("late"))
	rig.sched.Drain()
	if st := late.Status(); st.Status != "succeeded" {
		t.Fatalf("late submission status = %s, want succeeded", st.Status)
	}
	if got := rig.sched.ActiveRuns(); got != 0 {
		t.Fatalf("ActiveRuns after drain = %d", got)
	}
	if got := len(rig.sched.Runs()); got != 3 {
		t.Fatalf("Runs() = %d entries, want 3", got)
	}
}

// Snapshots carry virtual-time marks and the makespan matches start/finish.
func TestSnapshotFields(t *testing.T) {
	rig := newRig(t, 4, FIFO{}, map[string]time.Duration{"run-001": 30 * time.Second})
	r := rig.sched.Submit(graph("wf"))
	if _, _, err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	st := r.Status()
	if st.ID != "run-001" || st.Workflow != "wf" {
		t.Fatalf("snapshot identity = %+v", st)
	}
	if st.LeasedNodes != 4 {
		t.Fatalf("LeasedNodes = %d, want 4", st.LeasedNodes)
	}
	if st.MakespanSec != 30 {
		t.Fatalf("MakespanSec = %v, want 30", st.MakespanSec)
	}
	if st.FinishedSec-st.StartedSec != st.MakespanSec {
		t.Fatalf("inconsistent marks: %+v", st)
	}
	// Terminal runs are pruned from the live index: Get no longer resolves
	// them, but SnapshotOf serves the frozen record forever.
	if _, ok := rig.sched.Get("run-001"); ok {
		t.Fatal("Get kept a terminal run live")
	}
	snap, ok := rig.sched.SnapshotOf("run-001")
	if !ok {
		t.Fatal("SnapshotOf lost the terminal run")
	}
	if snap.Status != "succeeded" || snap.MakespanSec != 30 {
		t.Fatalf("frozen snapshot = %+v", snap)
	}
	if _, ok := rig.sched.SnapshotOf("run-999"); ok {
		t.Fatal("SnapshotOf invented a run")
	}
}

// Policy quota arithmetic: FIFO and FairShare are the one equal-share rule at
// k = 1 and k = MaxConcurrent.
func TestPolicyQuotas(t *testing.T) {
	fifo := FairShare{MaxConcurrent: 1}.slots()
	fs := FairShare{MaxConcurrent: 3}.slots()
	for _, c := range []struct {
		name                   string
		total, k, free, active int
		want                   int
	}{
		{"FIFO idle", 8, fifo, 8, 0, 8},
		{"FIFO busy", 8, fifo, 4, 1, 0},
		{"FairShare 9/3", 9, fs, 9, 0, 3},
		{"FairShare at capacity", 9, fs, 3, 3, 0},
		{"FairShare small-cluster floor", 4, FairShare{MaxConcurrent: 16}.slots(), 4, 0, 1},
		{"progress clamp on an idle cluster", 8, 2, 3, 0, 3},
		{"oversized share holds while something runs", 8, 2, 3, 1, 0},
		{"nothing free", 8, 2, 0, 0, 0},
	} {
		if got := equalShare(c.total, c.k, c.free, c.active); got != c.want {
			t.Fatalf("%s: equalShare(%d, %d, %d, %d) = %d, want %d", c.name, c.total, c.k, c.free, c.active, got, c.want)
		}
	}
	if got := (FairShare{}).Name(); got != "fair-share(1)" {
		t.Fatalf("zero-value FairShare name = %q", got)
	}
}

// Concurrent Submits, Status polls and Runs listings against a draining
// scheduler must be race-free (run with -race) and every run must finish.
func TestConcurrentSubmitRace(t *testing.T) {
	rig := newRig(t, 6, FairShare{MaxConcurrent: 3}, nil)
	const submitters = 4
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		runs []*Run
	)
	wg.Add(submitters)
	for w := 0; w < submitters; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				r := rig.sched.Submit(graph(fmt.Sprintf("w%d-%d", w, i)))
				mu.Lock()
				runs = append(runs, r)
				mu.Unlock()
				r.Status()
				rig.sched.Runs()
				rig.sched.QueueDepth()
			}
		}()
	}
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for i := 0; i < 200; i++ {
			rig.sched.Runs()
			rig.sched.ActiveRuns()
		}
	}()
	wg.Wait()
	rig.sched.Drain()
	<-pollDone
	mu.Lock()
	defer mu.Unlock()
	if len(runs) != submitters*5 {
		t.Fatalf("submitted %d runs", len(runs))
	}
	for _, r := range runs {
		if st := r.Status(); st.Status != "succeeded" {
			t.Fatalf("%s finished %s", st.ID, st.Status)
		}
	}
	if rig.clu.ReservedNodes() != 0 {
		t.Fatal("reservations leaked after drain")
	}
	if err := rig.clu.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Batch submissions produce identical virtual-time schedules on every
// repetition: the cooperative clock makes the interleaving a pure function
// of the submission order, not of goroutine scheduling.
func TestBatchDeterminism(t *testing.T) {
	durs := map[string]time.Duration{
		"run-001": 25 * time.Second,
		"run-002": 15 * time.Second,
		"run-003": 35 * time.Second,
		"run-004": 5 * time.Second,
	}
	schedule := func() string {
		rig := newRig(t, 4, FairShare{MaxConcurrent: 2}, durs)
		for i := 1; i <= 4; i++ {
			rig.sched.Submit(graph(fmt.Sprintf("wf%d", i)))
		}
		rig.sched.Drain()
		out := ""
		for _, sp := range rig.spans {
			out += fmt.Sprintf("%s[%v-%v] ", sp.runID, sp.start, sp.end)
		}
		return out
	}
	want := schedule()
	for i := 0; i < 10; i++ {
		if got := schedule(); got != want {
			t.Fatalf("iteration %d: schedule %q, want %q", i, got, want)
		}
	}
}

// doneProbe is FIFO that counts the decision rounds in which a party is
// leaving the clock — more parties than admitted runs — while the latest
// submitted run, the only one that can be leaving when runs go one at a time,
// already has its done channel closed.
type doneProbe struct {
	FIFO
	clock *vtime.Clock
	runs  []*Run
	early int
}

func (p *doneProbe) Decide(st State) []Action {
	if n := len(p.runs); n > 0 && p.clock.Parties() > st.ActiveLen() {
		select {
		case <-p.runs[n-1].Done():
			p.early++
		default:
		}
	}
	return p.FIFO.Decide(st)
}

// A run that finishes its own segment closes done only once its party has
// left the clock. The decision round its party runs on the way out must find
// done still open; otherwise a client released by Drain could submit its next
// batch before the party leaves, and the departure would dispatch that batch's
// first run while the rest was still being submitted.
func TestDoneClosesAfterThePartyLeaves(t *testing.T) {
	probe := &doneProbe{}
	rig := newRig(t, 4, probe, nil)
	probe.clock = rig.clock
	for batch := 0; batch < 6; batch++ {
		probe.runs = append(probe.runs, rig.sched.Submit(graph(fmt.Sprintf("wf%d", batch))))
		rig.sched.Drain()
		if n := rig.clock.Parties(); n != 0 {
			t.Fatalf("batch %d: Drain returned with %d parties on the clock", batch, n)
		}
	}
	if probe.early != 0 {
		t.Fatalf("%d decision rounds saw a leaving run's done already closed", probe.early)
	}
	// The six batches ran back to back: 6 x 10 s.
	if now := rig.clock.Now(); now != 60*time.Second {
		t.Fatalf("final virtual time = %v, want 60s", now)
	}
}
