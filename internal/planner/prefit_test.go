package planner

import (
	"maps"
	"slices"
	"sort"
	"testing"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/pegasus"
	"github.com/asap-project/ires/internal/workflow"
)

// prefitRecorder is an Estimator with the Prefitter hook that keeps a dirty
// set the way the profiler keeps operators whose models are behind their
// buffer: retrain marks an operator dirty and tells the planner, Prefit fits
// (cleans) the dirty names it is handed, and an Estimates call on an operator
// still dirty would be a lazy fit. For each build it records the dirty names
// Prefit was handed and the operators dirty at the build's start that
// Estimates was called for.
type prefitRecorder struct {
	Estimator
	p                   *Planner
	dirty, atStart      map[string]bool
	prefitted, estimate map[string]bool
	lazy                []string
}

func newPrefitRecorder(est Estimator, lib *operator.Library) *prefitRecorder {
	r := &prefitRecorder{Estimator: est, dirty: map[string]bool{}}
	for _, mo := range lib.Operators() {
		r.dirty[mo.Name] = true // nothing fitted yet
	}
	return r
}

func (r *prefitRecorder) Prefit(names []string) {
	for _, name := range names {
		if r.dirty[name] {
			r.prefitted[name] = true
			delete(r.dirty, name)
		}
	}
}

func (r *prefitRecorder) Estimates(opName string, feats map[string]float64) Estimates {
	if r.dirty[opName] {
		r.lazy = append(r.lazy, opName)
	}
	if r.atStart[opName] {
		r.estimate[opName] = true
	}
	return r.Estimator.Estimates(opName, feats)
}

func (r *prefitRecorder) retrain(op string) {
	r.dirty[op] = true
	r.p.ProfilerRetrain(op)
}

// check runs one build and compares what it prefitted with what it read.
func (r *prefitRecorder) check(t *testing.T, what string, build func() error) {
	t.Helper()
	r.atStart, r.prefitted, r.estimate, r.lazy = maps.Clone(r.dirty), map[string]bool{}, map[string]bool{}, nil
	if err := build(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(r.lazy) > 0 {
		t.Errorf("%s: Estimates read %v while still dirty: the build would have fitted them one at a time", what, r.lazy)
	}
	if got, want := sorted(r.prefitted), sorted(r.estimate); !slices.Equal(got, want) {
		t.Errorf("%s: prefitted the dirty operators %v, estimated the dirty operators %v", what, got, want)
	}
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// The operators a build hands the Prefitter, cut to the dirty ones, are the
// dirty operators it estimates: the first, cold build fits every usable match
// in one batch, and after a retrain the rebuild fits just the retrained
// operator, before its first estimate. Text chain, diamond, Montage-50, one
// engine down, a replan from a done set and the Pareto planner.
func TestPrefitCoversEveryDirtyEstimate(t *testing.T) {
	montage, err := pegasus.Generate(pegasus.Montage, 50)
	if err != nil {
		t.Fatal(err)
	}
	done := []MaterializedIntermediate{{
		Dataset: "d1", Meta: metadata.MustParse("Engine.FS=HDFS\ntype=SequenceFile"),
		Records: 5_000, Bytes: 25_000_000,
	}}
	type scenario struct {
		name  string
		setup func(t *testing.T) (*operator.Library, Estimator, *workflow.Graph, []func(*Config))
		build func(p *Planner, g *workflow.Graph) error
	}
	text := func(t *testing.T) (*operator.Library, Estimator, *workflow.Graph, []func(*Config)) {
		return textLib(t), textEstimator(), textWorkflow(t, 1000), nil
	}
	plan := func(p *Planner, g *workflow.Graph) error { _, err := p.Plan(g); return err }
	for _, sc := range []scenario{
		{"text chain", text, plan},
		{"diamond", func(t *testing.T) (*operator.Library, Estimator, *workflow.Graph, []func(*Config)) {
			lib, est, g := diamond(t)
			return lib, est, g, nil
		}, plan},
		{"Montage-50", func(t *testing.T) (*operator.Library, Estimator, *workflow.Graph, []func(*Config)) {
			return pegasusPlanner(t, montage).cfg.Library, sizeEstimator{}, montage, nil
		}, plan},
		{"Hadoop down", func(t *testing.T) (*operator.Library, Estimator, *workflow.Graph, []func(*Config)) {
			down := func(c *Config) { c.EngineAvailable = func(name string) bool { return name != "Hadoop" } }
			return textLib(t), textEstimator(), textWorkflow(t, 1000), []func(*Config){down}
		}, plan},
		{"replan from d1", text, func(p *Planner, g *workflow.Graph) error { _, err := p.Replan(g, done); return err }},
		{"Pareto", text, func(p *Planner, g *workflow.Graph) error { _, err := p.ParetoPlans(g); return err }},
	} {
		lib, est, g, opts := sc.setup(t)
		rec := newPrefitRecorder(est, lib)
		rec.p = newPlanner(t, lib, rec, opts...)
		rec.check(t, sc.name+", cold", func() error { return sc.build(rec.p, g) })
		if len(rec.prefitted) == 0 {
			t.Fatalf("%s: the cold build prefitted nothing", sc.name)
		}
		if sc.name == "Hadoop down" {
			for op := range rec.prefitted {
				if mo, _ := lib.Operator(op); mo.Engine() == "Hadoop" {
					t.Errorf("%s: prefitted %s, whose engine is down", sc.name, op)
				}
			}
		}
		rec.check(t, sc.name+", warm", func() error { return sc.build(rec.p, g) })
		for _, mo := range lib.Operators() {
			rec.retrain(mo.Name)
			rec.check(t, sc.name+", after retraining "+mo.Name, func() error { return sc.build(rec.p, g) })
		}
	}
}

// A warm build with nothing dirty costs the hook no allocation: the names go
// into one reused slice, and a profiler with nothing dirty returns at once.
func TestPrefitAddsNoAllocationToAWarmBuild(t *testing.T) {
	g, err := pegasus.Generate(pegasus.Montage, 50)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(hooked bool) float64 {
		p := pegasusPlanner(t, g)
		if hooked {
			rec := newPrefitRecorder(sizeEstimator{}, p.cfg.Library)
			rec.p, rec.atStart, rec.prefitted, rec.estimate = p, map[string]bool{}, map[string]bool{}, map[string]bool{}
			p.cfg.Estimator = rec
		}
		plan := func() {
			if _, err := p.Plan(g); err != nil {
				t.Fatal(err)
			}
		}
		plan()
		return testing.AllocsPerRun(20, plan)
	}
	if plain, hooked := allocs(false), allocs(true); hooked != plain {
		t.Errorf("a warm Plan allocates %v times with the Prefit hook, %v without", hooked, plain)
	}
}
