package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"github.com/asap-project/ires/internal/cluster"
	"github.com/asap-project/ires/internal/executor"
	"github.com/asap-project/ires/internal/federation"
	"github.com/asap-project/ires/internal/planner"
	"github.com/asap-project/ires/internal/scheduler"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/vtime"
	"github.com/asap-project/ires/internal/workflow"
)

// Federation bench shape: two regions of fedBenchNodes node agents each, a
// batch of checkpointing workflows split across them by data locality, and a
// full region outage mid-flight. The outage must be recovered by
// cross-cluster replans that restore the durable checkpoints mirrored at
// write time — no checkpointed work unit may execute twice.
const (
	fedBenchMembers  = 2
	fedBenchNodes    = 64
	fedBenchRuns     = 24
	fedBenchUnitSec  = 5.0
	fedBenchOutageAt = 12 * time.Second
)

// FedBench is the machine-readable result of the federation gate
// (cell FED, `make bench-fed`).
type FedBench struct {
	Seed            int64   `json:"seed"`
	Members         int     `json:"members"`
	NodesPerMember  int     `json:"nodesPerMember"`
	Runs            int     `json:"runs"`
	OutageAtSec     float64 `json:"outageAtSec"`
	AffectedRuns    int     `json:"affectedRuns"`
	Replans         int     `json:"replans"`
	MovedRuns       int     `json:"movedRuns"`
	TotalUnits      int     `json:"totalUnits"`
	ExecutedUnits   int     `json:"executedUnits"`
	RestoredUnits   int     `json:"restoredUnits"`
	ReExecutedUnits int     `json:"reExecutedUnits"`
	MakespanSec     float64 `json:"makespanSec"`
	Deterministic   bool    `json:"deterministic"`
}

// Gate returns an error unless the acceptance conditions hold: the region
// outage strands real work, every stranded run completes via a
// cross-cluster replan, replanned runs restore mirrored checkpoints instead
// of recomputing (zero re-executed units), and the whole scenario is
// byte-identical across two fixed-seed executions.
func (b *FedBench) Gate() error {
	switch {
	case b.AffectedRuns < 3:
		return fmt.Errorf("only %d runs were in flight on the failed region — outage too late to matter", b.AffectedRuns)
	case b.MovedRuns != b.AffectedRuns || b.Replans != b.AffectedRuns:
		return fmt.Errorf("affected=%d but moved=%d replans=%d — some stranded runs were not replanned exactly once",
			b.AffectedRuns, b.MovedRuns, b.Replans)
	case b.RestoredUnits == 0:
		return fmt.Errorf("replanned runs restored no mirrored checkpoint units — the zero-reexecution claim is vacuous")
	case b.ReExecutedUnits != 0:
		return fmt.Errorf("%d checkpointed units were re-executed after replan, want 0", b.ReExecutedUnits)
	case b.ExecutedUnits != b.TotalUnits:
		return fmt.Errorf("executed %d units, want exactly %d — work was lost or double-counted (restored units run once on the dead region, then resume from the mirror)",
			b.ExecutedUnits, b.TotalUnits)
	case !b.Deterministic:
		return fmt.Errorf("traces differ between two fixed-seed executions")
	}
	return nil
}

// fedBenchRecord tracks every executed work unit per checkpoint key, and the
// checkpoint progress each execution attempt started from.
type fedBenchRecord struct {
	mu       sync.Mutex
	units    map[string]map[int]int // key -> unit -> times executed
	restored int
	executed int
}

func newFedBenchRecord() *fedBenchRecord {
	return &fedBenchRecord{units: make(map[string]map[int]int)}
}

func (r *fedBenchRecord) start(key string, progress int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.restored += progress
}

func (r *fedBenchRecord) unit(key string, i int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.units[key] == nil {
		r.units[key] = make(map[int]int)
	}
	r.units[key][i]++
	r.executed++
}

func (r *fedBenchRecord) reExecuted() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.units {
		for _, times := range m {
			if times > 1 {
				n += times - 1
			}
		}
	}
	return n
}

// fedBenchExec is the checkpointing unit-stepping executor stub: it banks a
// durable checkpoint after every unit and seeds from the banked progress at
// start, so a replanned run on a cluster holding mirrored checkpoints
// resumes where the dead region stopped. A cancellation landing mid-unit
// discards the partial unit.
type fedBenchExec struct {
	clock *vtime.Clock
	clu   *cluster.Cluster
	ctx   scheduler.ExecContext
	units map[string]int
	rec   *fedBenchRecord
}

func (e *fedBenchExec) Execute(g *workflow.Graph, plan *planner.Plan) (*executor.Result, error) {
	key := "fed/" + g.Target
	total := e.units[g.Target]
	begin := e.clock.Now()
	unitDur := time.Duration(fedBenchUnitSec * float64(time.Second))
	start := e.clu.CheckpointProgress(key, "units", total)
	e.rec.start(key, start)
	for i := start; i < total; i++ {
		if e.ctx.Canceled() {
			return nil, executor.ErrCanceled
		}
		if e.ctx.Suspend() {
			return &executor.Result{Makespan: e.clock.Now() - begin}, executor.ErrSuspended
		}
		e.ctx.Party.WaitUntil(e.clock.Now() + unitDur)
		if e.ctx.Canceled() {
			return nil, executor.ErrCanceled
		}
		e.rec.unit(key, i)
		e.clu.PutCheckpoint(key, "units", i+1, total, nil, true)
	}
	return &executor.Result{Makespan: e.clock.Now() - begin}, nil
}

func (e *fedBenchExec) Resume(g *workflow.Graph, done []planner.MaterializedIntermediate) (*executor.Result, error) {
	return e.Execute(g, nil)
}

// fedBenchUnits gives workflow i its unit count: 6-9 units, deterministic in
// the index so both executions of a seed see identical work.
func fedBenchUnits(i int) int { return 6 + i%4 }

type fedBenchPass struct {
	affected  int
	replans   int
	moved     int
	total     int
	executed  int
	restored  int
	reExec    int
	makespan  float64
	traceJSON []byte
}

// runFedBenchPass executes the scenario once: submit fedBenchRuns
// checkpointing workflows across the two regions (placement by data
// locality splits them evenly), fail region east mid-flight, and wait for
// every federated run to complete wherever it ended up.
func runFedBenchPass(seed int64) (*fedBenchPass, error) {
	clock := vtime.NewClock()
	rec := newFedBenchRecord()
	tracer := &fedBenchTracer{}

	members := make([]*federation.Member, 0, fedBenchMembers)
	for _, name := range []string{"east", "west"} {
		clu := cluster.New(clock, fedBenchNodes, 4, 8192)
		clu.SetTracer(tracer)
		units := make(map[string]int, fedBenchRuns)
		for i := 0; i < fedBenchRuns; i++ {
			units[fmt.Sprintf("wf-%02d", i)] = fedBenchUnits(i)
		}
		sched, err := scheduler.New(scheduler.Config{
			Clock:   clock,
			Cluster: clu,
			Policy:  scheduler.FairShare{MaxConcurrent: 16},
			Tracer:  tracer,
			Plan: func(g *workflow.Graph) (*planner.Plan, error) {
				return &planner.Plan{Target: g.Target}, nil
			},
			NewExecutor: func(ctx scheduler.ExecContext) scheduler.Exec {
				return &fedBenchExec{clock: clock, clu: clu, ctx: ctx, units: units, rec: rec}
			},
		})
		if err != nil {
			return nil, err
		}
		members = append(members, &federation.Member{
			Name: name, Cluster: clu, Scheduler: sched,
			Datasets: map[string]bool{"ds-" + name: true},
		})
	}
	f, err := federation.New(clock, tracer, members...)
	if err != nil {
		return nil, err
	}

	runs := make([]*federation.Run, 0, fedBenchRuns)
	for i := 0; i < fedBenchRuns; i++ {
		name := fmt.Sprintf("wf-%02d", i)
		ds := "ds-east"
		if i%2 == 1 {
			ds = "ds-west"
		}
		fr, err := f.Submit(fedGraphNamed(name), scheduler.SubmitOptions{Name: name}, ds)
		if err != nil {
			return nil, err
		}
		runs = append(runs, fr)
	}
	clock.Schedule(fedBenchOutageAt, func(time.Duration) {
		_ = f.FailRegion("east")
	})
	pass := &fedBenchPass{}
	for i, fr := range runs {
		if _, _, err := fr.Wait(); err != nil {
			return nil, fmt.Errorf("federated run %s (wf-%02d) failed: %w", fr.ID(), i, err)
		}
		pass.moved += fr.Moves()
		pass.total += fedBenchUnits(i)
	}
	f.WaitIdle()

	pass.replans = f.Replans()
	pass.affected = 0
	for _, fr := range runs {
		if fr.Moves() > 0 {
			pass.affected++
		}
	}
	pass.executed = rec.executed
	pass.restored = rec.restored
	pass.reExec = rec.reExecuted()
	pass.makespan = clock.Now().Seconds()

	var buf bytes.Buffer
	tracer.mu.Lock()
	err = trace.WriteJSONL(&buf, tracer.events)
	tracer.mu.Unlock()
	if err != nil {
		return nil, err
	}
	pass.traceJSON = buf.Bytes()
	return pass, nil
}

// fedBenchTracer records the merged event stream of both clusters, both
// schedulers and the federation layer for the byte-identity comparison.
type fedBenchTracer struct {
	mu     sync.Mutex
	events []trace.Event
}

func (t *fedBenchTracer) Emit(ev trace.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, ev)
}

// fedGraphNamed builds a single-target graph; the target doubles as the
// checkpoint key, so a replanned resubmission finds the banked units.
func fedGraphNamed(name string) *workflow.Graph {
	g := workflow.NewGraph()
	g.Target = name
	return g
}

// RunFedBench executes the federation outage scenario twice on one seed and
// compares the full event traces byte-for-byte.
func RunFedBench(seed int64) (*FedBench, error) {
	first, deterministic, err := twice("outage pass",
		func() (*fedBenchPass, error) { return runFedBenchPass(seed) },
		func(p *fedBenchPass) []byte { return p.traceJSON })
	if err != nil {
		return nil, err
	}
	return &FedBench{
		Seed:            seed,
		Members:         fedBenchMembers,
		NodesPerMember:  fedBenchNodes,
		Runs:            fedBenchRuns,
		OutageAtSec:     fedBenchOutageAt.Seconds(),
		AffectedRuns:    first.affected,
		Replans:         first.replans,
		MovedRuns:       first.moved,
		TotalUnits:      first.total,
		ExecutedUnits:   first.executed,
		RestoredUnits:   first.restored,
		ReExecutedUnits: first.reExec,
		MakespanSec:     first.makespan,
		Deterministic:   deterministic,
	}, nil
}

// Report renders the benchmark as an ires-bench report.
func (b *FedBench) Report() *Report {
	r := &Report{ID: "FED", Title: "Federation: a full region outage recovered by cross-cluster replans"}
	r.Tables = append(r.Tables, Table{
		Title: fmt.Sprintf("%d members x %d agents, %d checkpointing runs placed by data locality, region east fails at t=%.0fs",
			b.Members, b.NodesPerMember, b.Runs, b.OutageAtSec),
		Header: []string{"affected", "replanned", "moved", "total units", "executed", "from mirror", "re-executed", "makespan (s)", "deterministic"},
		Rows: [][]string{{
			fmt.Sprintf("%d", b.AffectedRuns),
			fmt.Sprintf("%d", b.Replans),
			fmt.Sprintf("%d", b.MovedRuns),
			fmt.Sprintf("%d", b.TotalUnits),
			fmt.Sprintf("%d", b.ExecutedUnits),
			fmt.Sprintf("%d", b.RestoredUnits),
			fmt.Sprintf("%d", b.ReExecutedUnits),
			fmt.Sprintf("%.1f", b.MakespanSec),
			fmt.Sprintf("%v", b.Deterministic),
		}},
	})
	if b.Gate() == nil {
		r.Note("all %d stranded runs finished on the surviving region, each replanned once, resuming %d checkpointed units from the mirror with none executed twice",
			b.AffectedRuns, b.RestoredUnits)
	}
	return r
}
