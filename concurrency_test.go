package ires

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/cluster"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/model"
	"github.com/asap-project/ires/internal/trace"
)

// concAlgos are four distinct algorithms on one engine. Engine noise streams
// are keyed by (engine, algorithm), so four workflows each built on its own
// algorithm draw from pairwise-disjoint streams — the precondition for the
// solo-equality assertions below.
var concAlgos = []string{
	engine.AlgTFIDF, engine.AlgKMeans, engine.AlgPagerank, engine.AlgLineCount,
}

// registerConcOps installs one Spark operator per concurrency-test algorithm
// and profiles it.
func registerConcOps(t *testing.T, p *Platform) {
	t.Helper()
	p.Profiler.Factories = []model.Factory{
		func() model.Model { return model.NewLinear() },
		func() model.Model { return model.NewKNN(2) },
	}
	space := ProfileSpace{
		Records:        []int64{1_000, 10_000, 100_000},
		BytesPerRecord: 1_000,
		Resources: []engine.Resources{
			{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456},
			{Nodes: 8, CoresPerN: 2, MemMBPerN: 3456},
			{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456},
		},
	}
	for _, algo := range concAlgos {
		name := "conc_" + algo
		desc := `
Constraints.Engine=Spark
Constraints.OpSpecification.Algorithm.name=` + algo + `
Constraints.Input0.Engine.FS=HDFS
Constraints.Output0.Engine.FS=HDFS
Constraints.Output0.type=SequenceFile
`
		if err := p.RegisterOperator(name, desc); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ProfileOperator(name, space); err != nil {
			t.Fatalf("profiling %s: %v", name, err)
		}
	}
}

// singleAlgoWorkflow builds dataset -> <algo> -> output with an HDFS input,
// so the plan needs no inter-engine moves (moves would share noise streams
// across workflows and break solo-equality).
func singleAlgoWorkflow(t *testing.T, p *Platform, algo string, records int64) *Workflow {
	t.Helper()
	wf, err := p.NewWorkflow().
		DatasetWithMeta("in",
			"Constraints.Engine.FS=HDFS\nConstraints.type=SequenceFile\nExecution.path=hdfs:///in"+
				"\nOptimization.documents="+itoa(records)+
				"\nOptimization.size="+itoa(records*1_000)).
		Operator("op", "Constraints.OpSpecification.Algorithm.name="+algo).
		Dataset("out").
		Chain("in", "op", "out").
		Target("out").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return wf
}

var concRecords = []int64{120_000, 60_000, 200_000, 90_000}

// concurrentBatch builds a fresh platform, submits one workflow per
// concurrency algorithm as a batch, drains, and returns each run's demuxed
// JSONL trace plus its snapshot, in submission order.
func concurrentBatch(t *testing.T, seed int64, admission AdmissionPolicy) ([][]byte, []RunSnapshot) {
	t.Helper()
	p, err := NewPlatform(Options{
		Seed:          seed,
		Admission:     admission,
		Retry:         RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Second},
		TimeoutFactor: 2.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	registerConcOps(t, p)
	if err := p.InjectFaults(FaultConfig{
		Seed:      seed,
		Default:   FaultTransient{FailProb: 0.15},
		Straggler: StragglerFaults{Prob: 0.15, Factor: 3},
	}); err != nil {
		t.Fatal(err)
	}
	var runs []*Run
	for i, algo := range concAlgos {
		wf := singleAlgoWorkflow(t, p, algo, concRecords[i])
		runs = append(runs, p.SubmitNamed(fmt.Sprintf("wf-%s", algo), wf))
	}
	p.Drain()
	var (
		logs  [][]byte
		snaps []RunSnapshot
	)
	for _, r := range runs {
		if _, _, err := r.Wait(); err != nil {
			t.Fatalf("%s: %v", r.ID(), err)
		}
		events := p.TraceForRun(r.ID())
		if len(events) == 0 {
			t.Fatalf("%s: empty per-run trace", r.ID())
		}
		var b bytes.Buffer
		if err := trace.WriteJSONL(&b, events); err != nil {
			t.Fatal(err)
		}
		logs = append(logs, b.Bytes())
		snaps = append(snaps, r.Status())
	}
	return logs, snaps
}

// Fixed seed, four concurrently submitted workflows under fair-share
// admission with chaos enabled: every run's demuxed trace must be
// byte-identical across two independent executions. This is the headline
// determinism regression — run it with -race and the interleaving is proven
// a pure function of the virtual-time schedule, not of goroutine scheduling.
func TestConcurrentPerRunTracesDeterministic(t *testing.T) {
	first, firstSnaps := concurrentBatch(t, 21, FairShare(2))
	second, _ := concurrentBatch(t, 21, FairShare(2))
	if len(first) < 4 {
		t.Fatalf("got %d runs, want >= 4", len(first))
	}
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			a := strings.Split(string(first[i]), "\n")
			b := strings.Split(string(second[i]), "\n")
			for j := 0; j < len(a) && j < len(b); j++ {
				if a[j] != b[j] {
					t.Fatalf("run %d traces diverge at line %d:\n  %s\n  %s", i, j, a[j], b[j])
				}
			}
			t.Fatalf("run %d traces differ in length: %d vs %d lines", i, len(a), len(b))
		}
	}
	// Fair-share actually overlapped runs (this was a concurrent execution,
	// not an accidental serialization).
	overlapped := false
	for i, a := range firstSnaps {
		for _, b := range firstSnaps[i+1:] {
			if a.StartedSec < b.FinishedSec && b.StartedSec < a.FinishedSec {
				overlapped = true
			}
		}
	}
	if !overlapped {
		t.Fatal("no two fair-share runs overlapped in virtual time")
	}

	// A different seed must change the logs (chaos and noise are seeded).
	other, _ := concurrentBatch(t, 22, FairShare(2))
	same := true
	for i := range first {
		if !bytes.Equal(first[i], other[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical per-run traces")
	}
}

// Under FIFO admission a batch is serialized with the whole cluster leased to
// each run — so every run must produce exactly the plan and result it would
// have produced on a dedicated platform.
func TestFIFOBatchMatchesSolo(t *testing.T) {
	const seed = 31
	p, err := NewPlatform(Options{Seed: seed, Admission: FIFO()})
	if err != nil {
		t.Fatal(err)
	}
	registerConcOps(t, p)
	var runs []*Run
	for i, algo := range concAlgos {
		runs = append(runs, p.SubmitNamed(algo, singleAlgoWorkflow(t, p, algo, concRecords[i])))
	}
	p.Drain()

	for i, algo := range concAlgos {
		plan, res, err := runs[i].Wait()
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		solo, err := NewPlatform(Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		registerConcOps(t, solo)
		soloPlan, soloRes, err := solo.Run(singleAlgoWorkflow(t, solo, algo, concRecords[i]))
		if err != nil {
			t.Fatalf("solo %s: %v", algo, err)
		}
		batchSteps, soloSteps := plan.OperatorSteps(), soloPlan.OperatorSteps()
		if len(batchSteps) != len(soloSteps) {
			t.Fatalf("%s: %d steps in batch vs %d solo", algo, len(batchSteps), len(soloSteps))
		}
		for j := range batchSteps {
			if batchSteps[j].Engine != soloSteps[j].Engine || batchSteps[j].Name != soloSteps[j].Name {
				t.Errorf("%s step %d: batch %s@%s vs solo %s@%s", algo, j,
					batchSteps[j].Name, batchSteps[j].Engine, soloSteps[j].Name, soloSteps[j].Engine)
			}
		}
		if res.Makespan != soloRes.Makespan {
			t.Errorf("%s: batch makespan %v != solo %v", algo, res.Makespan, soloRes.Makespan)
		}
		if res.FinalRecords != soloRes.FinalRecords {
			t.Errorf("%s: batch records %d != solo %d", algo, res.FinalRecords, soloRes.FinalRecords)
		}
	}
}

// Concurrent Submit, Cancel, InjectFaults, Plan, metrics scrapes (through the
// drain too) and status polls against one platform must be race-free (run with -race) and drain to
// terminal states with no leaked reservations or containers.
func TestPlatformConcurrentAPIRace(t *testing.T) {
	p, err := NewPlatform(Options{
		Seed:      41,
		Admission: FairShare(3),
		Retry:     RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	registerConcOps(t, p)

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		runs []*Run
	)
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				algo := concAlgos[(w+i)%len(concAlgos)]
				r := p.SubmitNamed(fmt.Sprintf("w%d-%d", w, i), singleAlgoWorkflow(t, p, algo, 30_000))
				mu.Lock()
				runs = append(runs, r)
				mu.Unlock()
				r.Status()
				if w == 0 && i == 1 {
					r.Cancel()
				}
			}
		}()
	}
	planned := singleAlgoWorkflow(t, p, concAlgos[1], 30_000)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := p.InjectFaults(FaultConfig{Seed: int64(i), Default: FaultTransient{FailProb: 0.05}}); err != nil {
				t.Errorf("InjectFaults: %v", err)
			}
			p.FaultStats()
		}
	}()
	go func() {
		defer wg.Done()
		var b bytes.Buffer
		for i := 0; i < 50; i++ {
			b.Reset()
			if err := p.Metrics().WritePrometheus(&b); err != nil {
				t.Errorf("WritePrometheus: %v", err)
			}
			p.Runs()
			p.TraceEvents()
		}
	}()
	go func() {
		// A plan emits its events under the planner's lock, and a scrape
		// reads the planner's counters through that lock.
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := p.Plan(planned); err != nil {
				t.Errorf("Plan: %v", err)
			}
		}
	}()
	wg.Wait()
	drained, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-drained:
				return
			default:
			}
			if err := p.Metrics().WritePrometheus(io.Discard); err != nil {
				t.Errorf("WritePrometheus: %v", err)
			}
		}
	}()
	p.Drain()
	close(drained)
	<-scraped

	mu.Lock()
	defer mu.Unlock()
	for _, r := range runs {
		st := r.Status()
		switch st.Status {
		case "succeeded", "failed", "canceled":
		default:
			t.Fatalf("%s not terminal after drain: %s", st.ID, st.Status)
		}
		if _, _, err := r.Wait(); err != nil && !errors.Is(err, ErrRunCanceled) {
			// Failures are possible under injected faults; they must be
			// reported, not hidden.
			if st.Error == "" {
				t.Fatalf("%s failed silently: %v", st.ID, err)
			}
		}
	}
	if got := p.Cluster.ReservedNodes(); got != 0 {
		t.Fatalf("%d nodes still reserved after drain", got)
	}
	if err := p.Cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// invariantTracer audits the cluster at every trace-event boundary: resource
// accounting must hold and reservations must never exceed the cluster, no
// matter how submissions, faults and recoveries interleave.
type invariantTracer struct {
	mu         sync.Mutex
	clu        *cluster.Cluster
	total      int
	events     int
	violations []string
}

func (it *invariantTracer) Emit(ev TraceEvent) {
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.clu == nil {
		return
	}
	it.events++
	if err := it.clu.CheckInvariants(); err != nil {
		it.violations = append(it.violations, fmt.Sprintf("%s: %v", ev.Type, err))
	}
	if got := it.clu.ReservedNodes(); got > it.total {
		it.violations = append(it.violations, fmt.Sprintf("%s: %d reserved > %d nodes", ev.Type, got, it.total))
	}
}

// Property test: randomized submission bursts and fault schedules never
// violate the cluster invariants at any event boundary, and the scheduler
// always drains.
func TestConcurrencyPropertyInvariants(t *testing.T) {
	for iter := 0; iter < 3; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("seed%d", iter), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + iter)))
			it := &invariantTracer{}
			p, err := NewPlatform(Options{
				Seed:      int64(100 + iter),
				Admission: FairShare(1 + rng.Intn(3)),
				Retry:     RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Second},
				Tracer:    it,
			})
			if err != nil {
				t.Fatal(err)
			}
			it.mu.Lock()
			it.clu = p.Cluster
			it.total = len(p.Cluster.Nodes())
			it.mu.Unlock()
			registerConcOps(t, p)

			cfg := FaultConfig{
				Seed:    rng.Int63(),
				Default: FaultTransient{FailProb: 0.1 + 0.2*rng.Float64()},
			}
			// At most two node crashes, each with a scheduled restore, so
			// admission can always make progress.
			for n := 0; n < 1+rng.Intn(2); n++ {
				node := fmt.Sprintf("node%d", rng.Intn(16))
				at := time.Duration(20+rng.Intn(60)) * time.Second
				cfg.NodeCrashes = append(cfg.NodeCrashes, NodeCrash{Node: node, At: at})
				p.Clock.Schedule(at+time.Duration(30+rng.Intn(30))*time.Second, func(time.Duration) {
					_ = p.RestoreNode(node)
				})
			}
			if err := p.InjectFaults(cfg); err != nil {
				t.Fatal(err)
			}

			var runs []*Run
			for i, n := 0, 3+rng.Intn(4); i < n; i++ {
				algo := concAlgos[rng.Intn(len(concAlgos))]
				records := int64(10_000 + rng.Intn(90_000))
				runs = append(runs, p.SubmitNamed(fmt.Sprintf("rnd-%d", i), singleAlgoWorkflow(t, p, algo, records)))
			}
			p.Drain()

			for _, r := range runs {
				if st := r.Status(); st.Status != "succeeded" && st.Status != "failed" {
					t.Fatalf("%s not terminal: %s", st.ID, st.Status)
				}
			}
			it.mu.Lock()
			violations, events := it.violations, it.events
			it.mu.Unlock()
			if len(violations) > 0 {
				t.Fatalf("%d invariant violations (first: %s)", len(violations), violations[0])
			}
			if events == 0 {
				t.Fatal("invariant tracer saw no events")
			}
			if got := p.Cluster.ReservedNodes(); got != 0 {
				t.Fatalf("%d nodes still reserved after drain", got)
			}
			if got := p.Cluster.LiveContainers(); got != 0 {
				t.Fatalf("%d containers still live after drain", got)
			}
		})
	}
}

// registerTextOpsWithParams is registerTextOps with the kmeans pair
// re-registered to declare an execution parameter, so plans carry a
// non-empty shared Params map.
func registerTextOpsWithParams(t *testing.T, p *Platform) {
	t.Helper()
	registerTextOps(t, p)
	for _, name := range []string{"kmeans_scikit", "kmeans_spark"} {
		mo, _ := p.Library.Operator(name)
		if err := p.RegisterOperator(name, mo.Meta.String()+"Optimization.param.k=8\n"); err != nil {
			t.Fatal(err)
		}
		space := ProfileSpace{
			Records:        []int64{1_000, 20_000, 500_000},
			BytesPerRecord: 5_000,
			Params:         map[string][]float64{"k": {8}},
			Resources:      []engine.Resources{{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456}, {Nodes: 16, CoresPerN: 2, MemMBPerN: 3456}},
		}
		if _, err := p.ProfileOperator(name, space); err != nil {
			t.Fatalf("profiling %s: %v", name, err)
		}
	}
}

// operatorFacts renders what plans share with the library's operators and
// must therefore never be written: the description trees and the parameter
// maps.
func operatorFacts(p *Platform) map[string]string {
	out := map[string]string{}
	for _, mo := range p.Library.Operators() {
		out[mo.Name] = mo.Meta.String() + fmt.Sprint(mo.Params())
	}
	return out
}

func assertOperatorsUnchanged(t *testing.T, p *Platform, before map[string]string) {
	t.Helper()
	after := operatorFacts(p)
	for name, want := range before {
		if got := after[name]; got != want {
			t.Errorf("operator %s changed:\nregistered: %s\nnow:        %s", name, want, got)
		}
	}
}

// The planner hands out the operators' own trees and maps (Step.OutMeta,
// Step.Params) instead of copies. Planning and executing the Fig 12 workflow
// with every run straggling — the executor's one write to a parameter map,
// faultStretch — must leave every registered operator as it was registered.
func TestPlansShareOperatorFactsReadOnly(t *testing.T) {
	p, err := NewPlatform(Options{Seed: 5, TimeoutFactor: 2.5, Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	registerTextOpsWithParams(t, p)
	before := operatorFacts(p)
	if err := p.InjectFaults(FaultConfig{Seed: 5, Straggler: StragglerFaults{Prob: 1, Factor: 3}}); err != nil {
		t.Fatal(err)
	}
	wf := textWorkflow(t, p, 50_000)
	plan, err := p.Plan(wf)
	if err != nil {
		t.Fatal(err)
	}
	shared := false
	for _, s := range plan.OperatorSteps() {
		if s.OutMeta != s.Op.OutputSpec(0) {
			t.Errorf("%s: OutMeta is not the operator's output spec", s.Name)
		}
		shared = shared || len(s.Params) > 0
	}
	if !shared {
		t.Fatalf("no step carries parameters:\n%s", plan.Describe())
	}
	if _, err := p.Execute(wf, plan); err != nil {
		t.Fatal(err)
	}
	if p.FaultStats().Stragglers == 0 {
		t.Fatal("no run straggled: the faultStretch write never happened")
	}
	if _, err := p.ParetoPlans(wf); err != nil {
		t.Fatal(err)
	}
	assertOperatorsUnchanged(t, p, before)
}

// Runs of one workflow execute — cloning Step.OutMeta, reading Step.Params,
// retraining the models and so evicting planner cache entries — while other
// goroutines Plan and ParetoPlans the same workflow over the same shared
// trees. Run with -race: any write to a shared tree or map is a report.
func TestExecuteWhilePlanningRace(t *testing.T) {
	p, err := NewPlatform(Options{Seed: 9, TimeoutFactor: 2.5, Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	registerTextOpsWithParams(t, p)
	if err := p.InjectFaults(FaultConfig{Seed: 9, Straggler: StragglerFaults{Prob: 0.5, Factor: 3}}); err != nil {
		t.Fatal(err)
	}
	before := operatorFacts(p)
	wf := textWorkflow(t, p, 50_000)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, planOnce := range []func() error{
		func() error { _, err := p.Plan(wf); return err },
		func() error { _, err := p.ParetoPlans(wf); return err },
	} {
		planOnce := planOnce
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := planOnce(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		if _, _, err := p.Run(wf); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	assertOperatorsUnchanged(t, p, before)
}

// InjectFaults and UseTrivialReplanner may be called while an Execute is in
// flight: an executor takes its fault schedule and replanner once, under the
// platform lock, when it is built, so the execution under way keeps what it
// started with and the next one sees the new wiring. Run with -race: Execute
// used to read both from a shared executor the two calls wrote.
func TestInjectFaultsDuringExecute(t *testing.T) {
	p, err := NewPlatform(Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	registerTextOps(t, p)
	wf := textWorkflow(t, p, 1_000)
	plan, err := p.Plan(wf)
	if err != nil {
		t.Fatal(err)
	}
	inFlight := make(chan struct{})
	var once sync.Once
	p.SetRunObserver(func(string, *RunMetrics) { once.Do(func() { close(inFlight) }) })
	errc := make(chan error, 1)
	go func() {
		_, err := p.Execute(wf, plan)
		errc <- err
	}()
	<-inFlight // the first operator has run, the second is still to come
	if err := p.InjectFaults(FaultConfig{Seed: 4, Straggler: StragglerFaults{Prob: 1, Factor: 3}}); err != nil {
		t.Fatal(err)
	}
	p.UseTrivialReplanner()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got := p.FaultStats().Stragglers; got != 0 {
		t.Fatalf("%d stragglers injected into the execution that was already in flight", got)
	}
	if _, err := p.Execute(wf, plan); err != nil {
		t.Fatal(err)
	}
	if got := p.FaultStats().Stragglers; got == 0 {
		t.Fatal("no straggler injected into the execution started after InjectFaults")
	}
}
