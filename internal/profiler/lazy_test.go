package profiler

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/metrics"
	"github.com/asap-project/ires/internal/model"
)

// lazyZoo is a seeded zoo small enough for hundreds of selections per test,
// with families whose Train consumes randomness. It holds both output-size
// families, apart, so the output targets select among positions 0 and 5.
func lazyZoo(seed int64) []model.Factory {
	return []model.Factory{
		func() model.Model { return model.NewLinear() },
		func() model.Model { return model.NewKNN(3) },
		func() model.Model { return model.NewTree(8, 2) },
		func() model.Model { return model.NewBagging(3, seed) },
		func() model.Model { return model.NewMLP(4, 20, 0.05, seed) },
		func() model.Model { return model.NewLeastMedianSquares(seed) },
	}
}

func lazyProfiler(seed int64) *Profiler {
	p := New(engine.NewDefaultEnvironment(seed), seed)
	p.Factories = lazyZoo(seed)
	p.ReselectEvery = 4
	return p
}

// lazyTargets are the learned targets; cost is derived from execTime.
var lazyTargets = []string{TargetExecTime, TargetOutRecords, TargetOutBytes}

// lazyProbes is the grid every comparison estimates on; "k" and
// "iterations" are ignored by operators that never saw them.
func lazyProbes() []map[string]float64 {
	var out []map[string]float64
	for _, rec := range []float64{500, 7_000, 40_000, 90_000, 5_000_000} {
		for _, nodes := range []float64{2, 16} {
			out = append(out, map[string]float64{
				"records": rec, "bytes": rec * 100, "nodes": nodes, "cores": 2, "memoryMB": 3456,
				"k": 5, "iterations": 10,
			})
		}
	}
	return out
}

// readAll reads everything a model reader can see of every operator.
func readAll(p *Profiler) []string {
	var out []string
	for _, op := range p.Operators() {
		om, _ := p.Models(op)
		out = append(out, fmt.Sprintf("%s n=%d gen=%d", op, om.SampleCount(), p.Gen()))
		for _, target := range append(lazyTargets[:len(lazyTargets):len(lazyTargets)], TargetCost) {
			line := fmt.Sprintf("%s/%s %s", op, target, om.ChosenFamily(target))
			for _, feats := range lazyProbes() {
				v, ok := p.Estimate(op, target, feats)
				line += fmt.Sprintf(" %x/%t", math.Float64bits(v), ok)
			}
			out = append(out, line)
		}
	}
	return out
}

// fitOneAtATime is the fit as it was before the targets shared one job: each
// target in turn scores the full cross-validation grid of its candidates (the
// output-size families for the output targets), takes the arg-min and trains
// it on the whole buffer. It leaves every operator up to date, so the
// profiler's own fit finds nothing to do.
func fitOneAtATime(t *testing.T, p *Profiler) {
	t.Helper()
	for _, op := range p.Operators() {
		om, _ := p.Models(op)
		om.mu.Lock()
		pending, n := om.selectN, len(om.X)
		if om.fitN != n || pending != 0 {
			om.fitN, om.selectN = n, 0
			for _, target := range lazyTargets {
				y := om.targets[target]
				fam, known := om.zoo.index[om.chosen[target]]
				if (known && pending > 0) || (!known && n >= 3) {
					on := pending
					if on == 0 {
						on = n
					}
					cands := []int{0, 1, 2, 3, 4, 5}
					if target != TargetExecTime {
						cands = []int{0, 5}
					}
					var zoo []model.Factory
					for _, c := range cands {
						zoo = append(zoo, om.zoo.factories[c])
					}
					scores, err := model.CrossValidate(zoo, om.X[:on], y[:on], om.cvFolds, om.seed)
					if err != nil {
						t.Fatal(err)
					}
					fam = cands[model.Best(scores, model.ByRelErr)]
				}
				m := om.zoo.factories[fam]()
				if err := m.Train(om.X, y); err != nil {
					t.Fatal(err)
				}
				om.models[target], om.chosen[target] = m, m.Name()
			}
		}
		om.mu.Unlock()
	}
}

// snapshot is every operator's model state, brought up to date first as a
// read would: its features, rows, target columns and chosen families, its
// feasibility wall and the rows since its last re-selection.
func snapshot(p *Profiler) string {
	var b strings.Builder
	for _, name := range p.Operators() {
		om, _ := p.Models(name)
		om.mu.Lock()
		_ = om.fitLocked() // counted in FitErrors; chosen keeps its last value
		fmt.Fprintf(&b, "%s %s %s %q wall=%v since=%d\n", om.Operator, om.Algorithm, om.Engine, om.Features, om.minFailRecords, om.sinceReselect)
		for _, row := range om.X {
			fmt.Fprintln(&b, row)
		}
		for _, target := range lazyTargets {
			fmt.Fprintln(&b, target, om.chosen[target], om.targets[target])
		}
		om.mu.Unlock()
	}
	return b.String()
}

// Reads are invisible: a profiler that is read after every mutation (the
// eager reference — every fit happens on one more row than the last) and one
// that is read only now and then must agree, bit for bit, whenever the second
// one looks. So is the shape of the fit: a third profiler, whose three targets
// are fitted one at a time over the full grid after every mutation, agrees
// with both, down to its snapshot.
func TestLazyReadsAreInvisible(t *testing.T) {
	space := Space{
		Records:        []int64{1000, 10_000, 100_000},
		BytesPerRecord: 40,
		Params:         map[string][]float64{"iterations": {10}},
		Resources:      []engine.Resources{{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456}},
	}
	for seed := int64(1); seed <= 6; seed++ {
		a, b, ref := lazyProfiler(seed), lazyProfiler(seed), lazyProfiler(seed)
		both := func(fn func(p *Profiler) error) {
			t.Helper()
			for _, p := range []*Profiler{a, b, ref} {
				if err := fn(p); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			fitOneAtATime(t, ref)
		}
		both(func(p *Profiler) error {
			_, err := p.ProfileOffline("profiled", engine.EngineJava, engine.AlgPagerank, space)
			return err
		})
		rng := rand.New(rand.NewSource(seed))
		ops := []string{"profiled", "fresh", "grows"}
		checks := 0
		for step := 0; step < 90; step++ {
			op := ops[rng.Intn(len(ops))]
			switch r := rng.Float64(); {
			case r < 0.04:
				both(func(p *Profiler) error {
					_, err := p.ProfileOffline("profiled", engine.EngineJava, engine.AlgPagerank, space)
					return err
				})
			case r < 0.08:
				// No mutation, so the seeded draws stay where they were: the
				// readers must also agree on a step that changed nothing.
			default:
				records := int64(1000 + rng.Intn(100_000))
				var params map[string]float64
				if op == "grows" && step > 30 {
					params = map[string]float64{"k": float64(1 + rng.Intn(9))} // a parameter old rows never had
				}
				run := obsRun(records, 1+float64(records)/1e4*(1+0.1*rng.NormFloat64()), params)
				if r < 0.18 {
					run.Failed = true
					run.Params["records"] = float64(1_000_000 + rng.Intn(1_000_000))
				}
				both(func(p *Profiler) error { return p.Observe(op, run) })
			}
			want := readAll(a)
			if oneByOne := readAll(ref); !slices.Equal(want, oneByOne) {
				t.Fatalf("seed %d step %d: three targets side by side diverged from one at a time\n got  %q\n want %q", seed, step, want, oneByOne)
			}
			if rng.Float64() < 0.2 || step == 89 {
				checks++
				if snapshot(a) != snapshot(ref) {
					t.Fatalf("seed %d step %d: snapshot differs from the one-at-a-time fit's", seed, step)
				}
				got := readAll(b)
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: %d lines vs %d", seed, step, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d step %d: lazy reader diverged\n got  %s\n want %s", seed, step, got[i], want[i])
					}
				}
			}
		}
		sa, sb := a.RefinementStats(), b.RefinementStats()
		if sa.Observations != sb.Observations || sb.Fits >= sa.Fits || sa.FitErrors+sb.FitErrors != 0 {
			t.Errorf("seed %d: stats eager %+v lazy %+v (%d checks): want equal observations, fewer lazy fits, no errors", seed, sa, sb, checks)
		}
		var wins uint64
		perTarget := map[string]uint64{}
		for w, n := range sa.Wins {
			wins += n
			perTarget[w.Target] += n
			if w.Target != TargetExecTime && !slices.Contains(outputFamilies, w.Family) {
				t.Errorf("seed %d: %s won %s, outside the output-size families", seed, w.Family, w.Target)
			}
		}
		// A selection's grid is candidates x folds, the folds clamped to the
		// rows: the whole zoo for execTime, two families for the output sizes.
		cells, grid := sa.CellsTrained+sa.CellsSkipped, perTarget[TargetExecTime]*uint64(len(a.Factories)+2+2)*uint64(a.CVFolds)
		if wins != sa.Selections || perTarget[TargetCost] != 0 || perTarget[TargetExecTime] != perTarget[TargetOutBytes] ||
			perTarget[TargetExecTime] != perTarget[TargetOutRecords] || sa.CellsSkipped == 0 || cells > grid {
			t.Errorf("seed %d: wins %v over %d selections, %d cells trained + %d skipped of at most %d",
				seed, perTarget, sa.Selections, sa.CellsTrained, sa.CellsSkipped, grid)
		}
	}
}

// A Prefit is a lazy read of each operator it names, done as one batch: a
// profiler that prefits random name sets (unknown, clean and repeated names
// among them) at random points agrees, bit for bit, with one that reads each
// named operator instead — every estimate, ChosenFamily, SampleCount, Gen,
// the snapshot and RefinementStats, wins and cells included. A known name
// is up to date when Prefit returns.
func TestPrefitMatchesLazyReads(t *testing.T) {
	space := Space{
		Records:        []int64{1000, 10_000, 100_000},
		BytesPerRecord: 40,
		Params:         map[string][]float64{"iterations": {10}},
		Resources:      []engine.Resources{{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456}},
	}
	ops := []string{"profiled", "fresh", "grows"}
	pool := []string{"profiled", "fresh", "grows", "unknown"}
	for seed := int64(1); seed <= 6; seed++ {
		pre, lazy := lazyProfiler(seed), lazyProfiler(seed)
		both := func(fn func(p *Profiler) error) {
			t.Helper()
			for _, p := range []*Profiler{pre, lazy} {
				if err := fn(p); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
		both(func(p *Profiler) error {
			_, err := p.ProfileOffline("profiled", engine.EngineJava, engine.AlgPagerank, space)
			return err
		})
		rng := rand.New(rand.NewSource(seed))
		prefits := 0
		for step := 0; step < 120; step++ {
			op := ops[rng.Intn(len(ops))]
			switch r := rng.Float64(); {
			case r < 0.03:
				both(func(p *Profiler) error {
					_, err := p.ProfileOffline("profiled", engine.EngineJava, engine.AlgPagerank, space)
					return err
				})
			case r < 0.06:
				// No mutation, so the seeded draws stay where they were: the
				// readers must also agree on a step that changed nothing.
			default:
				records := int64(1000 + rng.Intn(100_000))
				var params map[string]float64
				if op == "grows" && step > 40 {
					params = map[string]float64{"k": float64(1 + rng.Intn(9))}
				}
				run := obsRun(records, 1+float64(records)/1e4*(1+0.1*rng.NormFloat64()), params)
				if r < 0.15 {
					run.Failed = true
					run.Params["records"] = float64(1_000_000 + rng.Intn(1_000_000))
				}
				both(func(p *Profiler) error { return p.Observe(op, run) })
			}
			if rng.Float64() < 0.35 {
				var names []string
				for range rng.Intn(6) {
					names = append(names, pool[rng.Intn(len(pool))])
				}
				pre.Prefit(names)
				prefits++
				for _, name := range names {
					if om, ok := lazy.Models(name); ok {
						om.ChosenFamily(TargetExecTime)
					}
					if om, ok := pre.Models(name); ok {
						om.mu.Lock()
						behind := !om.upToDateLocked()
						om.mu.Unlock()
						if behind {
							t.Fatalf("seed %d step %d: %s is still behind its buffer after Prefit(%q)", seed, step, name, names)
						}
					}
				}
			}
			if sp, sl := pre.RefinementStats(), lazy.RefinementStats(); !reflect.DeepEqual(sp, sl) || pre.Gen() != lazy.Gen() {
				t.Fatalf("seed %d step %d: prefit stats %+v gen %d, lazy %+v gen %d", seed, step, sp, pre.Gen(), sl, lazy.Gen())
			}
			if rng.Float64() < 0.2 || step == 119 {
				if got, want := readAll(pre), readAll(lazy); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: prefitting reader diverged\n got  %q\n want %q", seed, step, got, want)
				}
				if snapshot(pre) != snapshot(lazy) {
					t.Fatalf("seed %d step %d: snapshot differs from the lazy reader's", seed, step)
				}
			}
		}
		if st := pre.RefinementStats(); prefits == 0 || st.Fits == 0 || st.FitErrors != 0 {
			t.Errorf("seed %d: %d prefits, stats %+v", seed, prefits, st)
		}
	}
}

// With nothing dirty Prefit returns at once: no allocation, and the dirty
// count it reads first is back at 0 once every operator is up to date.
func TestPrefitWithNothingDirty(t *testing.T) {
	p := lazyProfiler(5)
	names := []string{"a", "b", "c", "unknown", "a"}
	for i := int64(1); i <= 6; i++ {
		for _, op := range names[:3] {
			_ = p.Observe(op, obsRun(i*1000, float64(i), nil))
		}
	}
	if n := p.stats.dirty.Load(); n != 3 {
		t.Fatalf("%d operators counted dirty, want 3", n)
	}
	p.Prefit(names)
	if n := p.stats.dirty.Load(); n != 0 {
		t.Fatalf("%d operators counted dirty after a Prefit of all of them", n)
	}
	if st := p.RefinementStats(); st.Fits != 3 {
		t.Fatalf("a Prefit of three dirty operators made %d fits", st.Fits)
	}
	if a := testing.AllocsPerRun(100, func() { p.Prefit(names) }); a != 0 {
		t.Errorf("a Prefit with nothing dirty allocates %v times", a)
	}
	om, _ := p.Models("b")
	om.ChosenFamily(TargetExecTime)
	if st := p.RefinementStats(); st.Fits != 3 {
		t.Errorf("a read after the Prefit fitted again: %d fits", st.Fits)
	}
	// A flag that says dirty over models that are up to date (a fit it
	// missed) costs Prefit no fit, is cleared, and leaves no lock held.
	_ = p.Observe("b", obsRun(7000, 7, nil))
	om.mu.Lock()
	om.fitN, om.selectN = len(om.X), 0
	om.mu.Unlock()
	p.Prefit(names)
	if st, n := p.RefinementStats(), p.stats.dirty.Load(); st.Fits != 3 || n != 0 || om.dirty.Load() {
		t.Errorf("a Prefit over a stale flag: %d fits, %d counted dirty, flag %v", st.Fits, n, om.dirty.Load())
	}
	for _, name := range names[:3] {
		if om, _ := p.Models(name); !om.mu.TryLock() {
			t.Fatalf("%s is still locked after Prefit", name)
		} else {
			om.mu.Unlock()
		}
	}
}

// m observations followed by one read cost one fit, not m.
func TestLazyCoalescesFits(t *testing.T) {
	p := lazyProfiler(3)
	for i := int64(1); i <= 5; i++ {
		if err := p.Observe("op", obsRun(i*1000, float64(i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.RefinementStats(); st.Observations != 5 || st.Fits != 0 {
		t.Fatalf("after 5 unread observations: %+v, want 5 observations and no fit", st)
	}
	om, _ := p.Models("op")
	om.SampleCount()
	p.Feasible("op", 10)
	p.ResetPredictionCaches()
	if st := p.RefinementStats(); st.Fits != 0 {
		t.Fatalf("SampleCount/Feasible/ResetPredictionCaches fitted: %+v", st)
	}
	for i := 0; i < 3; i++ {
		for _, target := range lazyTargets {
			if _, ok := p.Estimate("op", target, lazyProbes()[i]); !ok {
				t.Fatalf("no estimate for %s", target)
			}
		}
		om.ChosenFamily(TargetOutBytes)
	}
	if st := p.RefinementStats(); st.Fits != 1 || st.Selections != uint64(len(lazyTargets)) {
		t.Fatalf("after one round of reads: %+v, want exactly one fit, one selection per target", st)
	}
	// The read selected on 5 rows. Four more rows are ReselectEvery, but the
	// buffer has not doubled: the next read refits the incumbents only.
	for i := int64(6); i <= 9; i++ {
		_ = p.Observe("op", obsRun(i*1000, float64(i), nil))
	}
	om.ChosenFamily(TargetExecTime)
	if st := p.RefinementStats(); st.Fits != 2 || st.Selections != uint64(len(lazyTargets)) || st.Observations != 9 {
		t.Fatalf("after 4 more observations (no re-selection due) and a read: %+v", st)
	}
	// The tenth row doubles it: one more fit, one re-selection per target.
	_ = p.Observe("op", obsRun(10_000, 10, nil))
	om.ChosenFamily(TargetExecTime)
	if st := p.RefinementStats(); st.Fits != 3 || st.Selections != 2*uint64(len(lazyTargets)) || st.Observations != 10 {
		t.Fatalf("after the buffer doubled and a read: %+v", st)
	}
}

// scheduleZoo is a zoo cheap enough to refit on a thousand rows a thousand
// times.
func scheduleZoo() []model.Factory {
	return []model.Factory{
		func() model.Model { return model.NewLinear() },
		func() model.Model { return model.NewKNN(3) },
	}
}

// scheduleRun is observation i of the schedule tests' stream.
func scheduleRun(rng *rand.Rand) *metrics.Run {
	records := int64(1000 + rng.Intn(100_000))
	return obsRun(records, 1+float64(records)/1e4*(1+0.1*rng.NormFloat64()), nil)
}

// observeAndRead observes run and reads the models, as a planner does after
// every run, and returns the buffer length if that read re-selected.
func observeAndRead(t *testing.T, p *Profiler, run *metrics.Run) (selectedAt int) {
	t.Helper()
	before := p.RefinementStats().Selections
	if err := p.Observe("op", run); err != nil {
		t.Fatal(err)
	}
	om, _ := p.Models("op")
	om.ChosenFamily(TargetExecTime)
	switch p.RefinementStats().Selections - before {
	case 0:
		return 0
	case uint64(len(lazyTargets)):
		return om.SampleCount()
	default:
		t.Fatalf("a read at %d rows selected %d times, want 0 or once per target", om.SampleCount(), p.RefinementStats().Selections-before)
		return 0
	}
}

// Profiled on n0 rows, then read after each of a thousand observations, an
// operator re-selects exactly when ReselectEvery rows have arrived since the
// last selection and the buffer has doubled since then: O(log n) selections,
// not n/ReselectEvery.
func TestReselectsWhenTheBufferDoubles(t *testing.T) {
	p := New(engine.NewDefaultEnvironment(1), 1)
	p.Factories = scheduleZoo()
	n0, err := p.ProfileOffline("op", engine.EngineSpark, engine.AlgWordcount, Space{
		Records: []int64{1000, 10_000, 100_000}, BytesPerRecord: 100,
		Resources: []engine.Resources{{Nodes: 4, CoresPerN: 2, MemMBPerN: 3456}, {Nodes: 8, CoresPerN: 2, MemMBPerN: 3456}},
	})
	if err != nil || n0 != 6 {
		t.Fatalf("profiled %d rows (%v), want 6", n0, err)
	}
	rng := rand.New(rand.NewSource(1))
	last, selections := n0, []int{}
	for range 1000 {
		n := observeAndRead(t, p, scheduleRun(rng))
		if n == 0 {
			continue
		}
		if want := max(last+p.ReselectEvery, 2*last); n != want {
			t.Fatalf("re-selected at %d rows after %d, want %d = max(%d + ReselectEvery, 2 x %d)", n, last, want, last, last)
		}
		last, selections = n, append(selections, n)
	}
	if bound := int(math.Ceil(math.Log2(1000/float64(n0)))) + 1; len(selections) > bound || len(selections) == 0 {
		t.Errorf("re-selected at %v: %d times over 1000 observations from %d rows, want at most %d", selections, len(selections), n0, bound)
	}
	t.Logf("re-selected at %v", selections)
}

// flaky is a model family whose Train fails on demand.
type flaky struct {
	model.Model
	fail *bool
}

func (f flaky) Name() string { return "Flaky" }

func (f flaky) Train(X [][]float64, y []float64) error {
	if *f.fail {
		return errors.New("flaky: train failed")
	}
	return f.Model.Train(X, y)
}

// A failing fit keeps the previous models and is not retried on every read;
// the next observation re-arms it.
func TestLazyFitErrorNotRetried(t *testing.T) {
	fail := false
	p := New(engine.NewDefaultEnvironment(1), 1)
	p.Factories = []model.Factory{func() model.Model { return flaky{model.NewLinear(), &fail} }}
	feats := lazyProbes()[1]
	for i := int64(1); i <= 4; i++ {
		_ = p.Observe("op", obsRun(i*1000, float64(i), nil))
	}
	before, ok := p.Estimate("op", TargetExecTime, feats)
	if !ok {
		t.Fatal("no estimate")
	}

	fail = true
	_ = p.Observe("op", obsRun(5000, 50, nil))
	for i := 0; i < 5; i++ {
		if got, ok := p.Estimate("op", TargetExecTime, feats); !ok || got != before {
			t.Fatalf("estimate after failed fit = %v/%t, want the previous model's %v", got, ok, before)
		}
	}
	if st := p.RefinementStats(); st.Fits != 2 || st.FitErrors != 1 {
		t.Fatalf("five reads of a failing fit: %+v, want one failed fit", st)
	}

	fail = false
	_ = p.Observe("op", obsRun(6000, 60, nil))
	if got, _ := p.Estimate("op", TargetExecTime, feats); got == before {
		t.Fatal("the observation after a failed fit did not re-arm it")
	}
	if st := p.RefinementStats(); st.Fits != 3 || st.FitErrors != 1 {
		t.Fatalf("after recovery: %+v", st)
	}
}

// failsOn is a model family whose whole-buffer Train fails, once armed, on a
// target whose last value is one of its markers, naming that value.
type failsOn struct {
	model.Model
	armed   *bool
	markers []float64
}

func (f *failsOn) Name() string { return "FailsOn" }

func (f *failsOn) Train(X [][]float64, y []float64) error {
	if *f.armed && slices.Contains(f.markers, y[len(y)-1]) {
		return fmt.Errorf("failsOn: target ending %v", y[len(y)-1])
	}
	return f.Model.Train(X, y)
}

// A fit in which two targets' Trains fail while the third trains commits
// nothing — every target keeps its previous model and family — and reports
// the first failing target in sorted order, outputBytes before outputRecords,
// on every execution and worker count.
func TestLazyFitWithFailingTargetsCommitsNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 5; rep++ {
			armed := false
			p := New(engine.NewDefaultEnvironment(1), 1)
			// The fifth run's output records (5000) and output bytes (5000 x 100).
			p.Factories = []model.Factory{func() model.Model { return &failsOn{model.NewLinear(), &armed, []float64{5000, 500_000}} }}
			for i := int64(1); i <= 4; i++ {
				_ = p.Observe("op", obsRun(i*1000, float64(i), nil))
			}
			om, _ := p.Models("op")
			before := readAll(p)
			om.mu.Lock()
			models, chosen := maps.Clone(om.models), maps.Clone(om.chosen)
			om.mu.Unlock()

			armed = true
			_ = p.Observe("op", obsRun(5000, 50, nil))
			om.mu.Lock()
			err := om.fitLocked()
			committed := !maps.Equal(models, om.models) || !maps.Equal(chosen, om.chosen)
			om.mu.Unlock()
			if err == nil || err.Error() != "failsOn: target ending 500000" {
				t.Fatalf("GOMAXPROCS=%d: fit error %v, want outputBytes', the first failing target", procs, err)
			}
			if committed {
				t.Fatalf("GOMAXPROCS=%d: a failed fit committed models", procs)
			}
			after := readAll(p)
			for i := range before {
				if i > 0 && before[i] != after[i] { // line 0 holds n and gen, which moved
					t.Fatalf("GOMAXPROCS=%d: after a failed fit\n got  %s\n want %s", procs, after[i], before[i])
				}
			}
			if st := p.RefinementStats(); st.FitErrors != 1 {
				t.Fatalf("GOMAXPROCS=%d: %+v, want one failed fit", procs, st)
			}
		}
	}
}

// Every fit reports its wall time and the summed time of its jobs: both
// positive, and the jobs never add up to more than GOMAXPROCS workers could
// do in that wall time.
func TestLazyFitTime(t *testing.T) {
	p := lazyProfiler(4)
	for i := int64(1); i <= 12; i++ {
		_ = p.Observe("op", obsRun(i*1000, float64(i%5)+1, nil))
	}
	if wall, busy := p.FitTime(); wall != 0 || busy != 0 {
		t.Fatalf("unread observations took %v wall, %v busy", wall, busy)
	}
	if _, ok := p.Estimate("op", TargetExecTime, lazyProbes()[0]); !ok {
		t.Fatal("no estimate")
	}
	wall, busy := p.FitTime()
	if wall <= 0 || busy <= 0 || busy > wall*time.Duration(runtime.GOMAXPROCS(0)) {
		t.Errorf("a fit took %v wall and %v busy at GOMAXPROCS=%d", wall, busy, runtime.GOMAXPROCS(0))
	}
}

// shapeSpy records the shape of every matrix its family is trained on.
type shapeSpy struct {
	model.Model
	mu     *sync.Mutex
	shapes *[][2]int
}

func (s shapeSpy) Train(X [][]float64, y []float64) error {
	s.mu.Lock()
	*s.shapes = append(*s.shapes, [2]int{len(X), len(X[0])})
	s.mu.Unlock()
	return s.Model.Train(X, y)
}

// A run that grows the feature set zero-pads the old rows, so a selection
// still pending on them must be settled first, on the rows as they were when
// it came due — never on a padded prefix, which the eager path never saw.
func TestLazyFeatureGrowthSettlesPendingSelection(t *testing.T) {
	var mu sync.Mutex
	var shapes [][2]int
	p := New(engine.NewDefaultEnvironment(1), 1)
	p.Factories = []model.Factory{
		func() model.Model { return shapeSpy{model.NewLinear(), &mu, &shapes} },
		func() model.Model { return model.NewKNN(3) },
	}
	p.ReselectEvery = 4
	for i := int64(1); i <= 5; i++ { // the fifth observation makes a re-selection due
		_ = p.Observe("op", obsRun(i*1000, float64(i), nil))
	}
	if len(shapes) != 0 {
		t.Fatalf("unread observations trained on %v", shapes)
	}
	_ = p.Observe("op", obsRun(6000, 6, map[string]float64{"k": 3}))
	base := len(BaseFeatures)
	if len(shapes) == 0 {
		t.Fatal("the pending selection was not settled before the rows were padded")
	}
	for _, sh := range shapes {
		if sh[1] != base || sh[0] > 5 {
			t.Fatalf("settling trained on a %dx%d matrix, want at most 5 rows of the %d base features", sh[0], sh[1], base)
		}
	}
	shapes = nil
	if _, ok := p.Estimate("op", TargetExecTime, lazyProbes()[0]); !ok {
		t.Fatal("no estimate")
	}
	for _, sh := range shapes {
		if sh != [2]int{6, base + 1} {
			t.Fatalf("the read after growth trained on %dx%d, want only the whole 6x%d buffer", sh[0], sh[1], base+1)
		}
	}
}

// trainSpy records the most Trains of its zoo in flight at once.
type trainSpy struct {
	model.Model
	inflight, peak *atomic.Int64
}

func (s trainSpy) Train(X [][]float64, y []float64) error {
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	for old := s.peak.Load(); n > old && !s.peak.CompareAndSwap(old, n); old = s.peak.Load() {
	}
	runtime.Gosched() // let the other workers start theirs
	return s.Model.Train(X, y)
}

// A fit is one job graph on GOMAXPROCS workers, the caller among them: the
// three targets do not stack a worker set each on a worker set per selection,
// and neither do the operators of a Prefit.
func TestLazyFitStaysWithinGOMAXPROCS(t *testing.T) {
	const procs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var inflight, peak atomic.Int64
	spy := func(m model.Model) model.Model { return trainSpy{m, &inflight, &peak} }
	p := New(engine.NewDefaultEnvironment(1), 1)
	p.Factories = []model.Factory{
		func() model.Model { return spy(model.NewLinear()) },
		func() model.Model { return spy(model.NewKNN(3)) },
		func() model.Model { return spy(model.NewTree(8, 2)) },
	}
	ops := []string{"op", "op2", "op3", "op4"}
	for i := int64(1); i <= 12; i++ {
		for _, op := range ops {
			_ = p.Observe(op, obsRun(i*1000, float64(i%5), nil))
		}
	}
	if _, ok := p.Estimate("op", TargetExecTime, lazyProbes()[0]); !ok {
		t.Fatal("no estimate")
	}
	if st := p.RefinementStats(); st.Selections != uint64(len(lazyTargets)) {
		t.Fatalf("the read selected %d times, want once per target", st.Selections)
	}
	if got := peak.Load(); got < 1 || got > procs {
		t.Errorf("%d Trains in flight at once during a fit of three targets, want at most GOMAXPROCS = %d", got, procs)
	}
	peak.Store(0)
	p.Prefit(ops)
	if st := p.RefinementStats(); st.Fits != uint64(len(ops)) || st.Selections != uint64(len(ops)*len(lazyTargets)) {
		t.Fatalf("the Prefit made %d fits and %d selections, want one fit and three selections per operator", st.Fits, st.Selections)
	}
	if got := peak.Load(); got < 1 || got > procs {
		t.Errorf("%d Trains in flight at once during a Prefit of %d dirty operators, want at most GOMAXPROCS = %d", got, len(ops)-1, procs)
	}
}

// Readers of two operators race one writer of both (run with -race): a read
// fits under the operator's own lock while the other operator stays readable.
func TestLazyConcurrentEstimateObserve(t *testing.T) {
	p := lazyProfiler(9)
	ops := []string{"left", "right"}
	for _, op := range ops {
		_ = p.Observe(op, obsRun(1000, 1, nil))
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, op := range ops {
		op := op
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, ok := p.Estimate(op, TargetExecTime, lazyProbes()[0]); !ok {
					t.Errorf("%s: no estimate", op)
					return
				}
				om, _ := p.Models(op)
				om.ChosenFamily(TargetOutBytes)
			}
		}()
	}
	for i := int64(2); i <= 40; i++ {
		for _, op := range ops {
			var params map[string]float64
			if i > 20 {
				params = map[string]float64{"k": float64(i)}
			}
			_ = p.Observe(op, obsRun(i*1000, float64(i), params))
		}
	}
	close(done)
	wg.Wait()
	for _, op := range ops {
		om, _ := p.Models(op)
		if om.SampleCount() != 40 || om.ChosenFamily(TargetExecTime) == "" {
			t.Errorf("%s: %d samples, family %q", op, om.SampleCount(), om.ChosenFamily(TargetExecTime))
		}
	}
}
