package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/model"
	"github.com/asap-project/ires/internal/trace"
)

// Everything here runs quick-size episodes, so the package stays well under
// ten seconds and tier-1 time is not hurt.

func mustGenerate(t *testing.T, workload string, seed int64, quick bool) *Spec {
	t.Helper()
	spec, err := Generate(workload, seed, quick)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func specBytes(t *testing.T, spec *Spec) []byte {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Equal seeds give byte-identical inputs, different seeds differ, and the
// amount of work does not depend on the seed.
func TestGeneratorIsAPureFunctionOfSeed(t *testing.T) {
	for _, w := range Workloads {
		a := mustGenerate(t, w.Name, 42, false)
		b := mustGenerate(t, w.Name, 42, false)
		c := mustGenerate(t, w.Name, 43, false)
		if !bytes.Equal(specBytes(t, a), specBytes(t, b)) {
			t.Errorf("%s: two generations with seed 42 differ", w.Name)
		}
		if bytes.Equal(specBytes(t, a), specBytes(t, c)) {
			t.Errorf("%s: seeds 42 and 43 give the same inputs", w.Name)
		}
		if a.Ops() != c.Ops() || a.Ops() == 0 {
			t.Errorf("%s: ops %d (seed 42) vs %d (seed 43)", w.Name, a.Ops(), c.Ops())
		}
		if !reflect.DeepEqual(a.Operators, c.Operators) || !reflect.DeepEqual(a.CostShapes, c.CostShapes) {
			t.Errorf("%s: operators or cost shapes depend on the seed", w.Name)
		}
	}
	if _, err := Generate("nope", 1, false); err == nil {
		t.Error("unknown workload accepted")
	}
}

// plan_wide never has two engines down, only flaps engines every algorithm
// has alternatives to, and ends with every engine up; its (graph, kind)
// multiset is the same for every seed.
func TestPlanWideFlapsOneEngineAtATime(t *testing.T) {
	multiset := func(spec *Spec) map[PlanSpec]int {
		m := map[PlanSpec]int{}
		for _, p := range spec.Plans {
			m[PlanSpec{Graph: p.Graph, Kind: p.Kind}]++
		}
		return m
	}
	ref := multiset(mustGenerate(t, PlanWide, 1, false))
	for seed := int64(1); seed <= 6; seed++ {
		spec := mustGenerate(t, PlanWide, seed, false)
		down := map[string]bool{}
		for i, p := range spec.Plans {
			if p.Kind != PlanFlap {
				if p.Engine != "" {
					t.Fatalf("seed %d plan %d: %s request names an engine", seed, i, p.Kind)
				}
				continue
			}
			if p.Up {
				if !down[p.Engine] {
					t.Fatalf("seed %d plan %d: restores %s, which is not down", seed, i, p.Engine)
				}
				delete(down, p.Engine)
			} else {
				down[p.Engine] = true
			}
			if len(down) > 1 {
				t.Fatalf("seed %d plan %d: engines down at once: %v", seed, i, down)
			}
		}
		if len(down) != 0 {
			t.Errorf("seed %d: episode ends with %v down", seed, down)
		}
		if !reflect.DeepEqual(multiset(spec), ref) {
			t.Errorf("seed %d: (graph, kind) multiset differs from seed 1", seed)
		}
	}
}

// The generator sets nothing beyond Options / SubmitOptions / FaultConfig /
// cost shapes / descriptions: the platform keeps its default cluster,
// monitor period and model zoo.
func TestWorkloadsRunOnPlatformDefaults(t *testing.T) {
	for _, w := range Workloads {
		spec := mustGenerate(t, w.Name, 42, true)
		o := spec.Options
		o.Seed, o.Retry, o.TimeoutFactor, o.BreakerThreshold, o.Checkpoint = 0, ires.RetryPolicy{}, 0, 0, ires.CheckpointPolicy{}
		if !reflect.DeepEqual(o, ires.Options{}) {
			t.Errorf("%s: generator sets platform options beyond seed and recovery knobs: %+v", w.Name, o)
		}
		su, err := setUp(spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		prof := su.P.Profiler
		if len(prof.Factories) != len(model.DefaultFactories(0)) || prof.CVFolds != 5 || prof.ReselectEvery != 10 {
			t.Errorf("%s: profiler not at its defaults: %d factories, %d folds, reselect every %d",
				w.Name, len(prof.Factories), prof.CVFolds, prof.ReselectEvery)
		}
		if cores, mem := su.P.Cluster.Capacity(); cores != 32 || mem != 16*3456 {
			t.Errorf("%s: cluster capacity %d cores / %d MB, want the default 16 x (2, 3456)", w.Name, cores, mem)
		}
	}
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json lists exactly the workloads and metrics of the tables in
// workload.go and metrics.go.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
	if len(m.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(m.Workloads), len(Workloads))
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for i, w := range Workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, table has %+v", i, m.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
		checkName(w.Name)
	}
	if len(m.EndToEnd) != len(EndToEnd) || len(m.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json has %d + %d metrics, tables have %d + %d", len(m.EndToEnd), len(m.PerLayer), len(EndToEnd), len(PerLayer))
	}
	hasSetup := false
	for i, def := range EndToEnd {
		got := m.EndToEnd[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, table has %+v", i, got, def)
		}
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
		hasSetup = hasSetup || (def.Name == "setup_s" && def.Unit == "s" && def.Better == "lower")
		checkName(def.Name)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, def := range PerLayer {
		got := m.PerLayer[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, table has %+v", i, got, def)
		}
		checkName(def.Name)
	}
	for _, def := range append(append([]MetricDef(nil), EndToEnd...), PerLayer...) {
		if !unitRE.MatchString(def.Unit) || (def.Better != "higher" && def.Better != "lower") {
			t.Errorf("%s: unit %q, better %q", def.Name, def.Unit, def.Better)
		}
	}
}

func checkMetrics(t *testing.T, got map[string]DriverMetric, defs []MetricDef, nonZero bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(got), len(defs))
	}
	for _, def := range defs {
		m, ok := got[def.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", def.Name)
		case m.Unit != def.Unit:
			t.Errorf("metric %s: unit %q, declared %q", def.Name, m.Unit, def.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is not finite: %v", def.Name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("end-to-end metric %s must be positive, is %v", def.Name, m.Value)
		}
	}
}

// One quick invocation per workload: both passes, every output check, the
// emitted names, the digests and the span tree.
func TestWorkloadsQuick(t *testing.T) {
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			spec := mustGenerate(t, w.Name, 42, true)
			var episodes []*Episode
			var setups []Segment
			for len(episodes) < 2 {
				ep, err := runEpisode(spec, nil)
				if err != nil {
					t.Fatal(err)
				}
				episodes, setups = append(episodes, ep), append(setups, ep.SetupSeg)
			}
			res := &WorkloadResult{Workload: spec.Workload, Attempted: spec.Ops()}
			summarize(res, episodes, setups)
			if episodes[0].VDigest == "" || episodes[0].VDigest != episodes[1].VDigest {
				t.Errorf("two episodes do not share a vdigest: %q vs %q", episodes[0].VDigest, episodes[1].VDigest)
			}
			other, err := runEpisode(mustGenerate(t, w.Name, 43, true), nil)
			if err != nil {
				t.Fatal(err)
			}
			if other.VDigest == res.VDigest {
				t.Error("vdigest does not depend on the seed")
			}

			dir := t.TempDir()
			layers, traced, col, err := tracedPass(spec, medianEpisode(episodes), dir)
			if err != nil {
				t.Fatal(err)
			}
			res.PerLayer = layers
			res.Errors = append(res.Errors, traced.Errors...)
			if traced.VDigest != res.VDigest {
				t.Errorf("traced vdigest %s, untraced %s", traced.VDigest, res.VDigest)
			}
			for _, e := range res.Errors {
				t.Errorf("output check failed: %s", e)
			}
			if w.Name != FaultStorm && res.Failed != 0 {
				t.Errorf("%d ops failed on a fault-free workload", res.Failed)
			}

			d := driverResult(res)
			e2e, perLayer := map[string]DriverMetric{}, map[string]DriverMetric{}
			for name, m := range d.Metrics {
				if strings.Contains(name, ".") {
					perLayer[name] = m
				} else {
					e2e[name] = m
				}
			}
			checkMetrics(t, e2e, EndToEnd, true)
			checkMetrics(t, perLayer, PerLayer, false)
			if !d.Correct || d.Attempted != spec.Ops() || d.Failed != res.Failed {
				t.Errorf("driver result %+v", d)
			}

			checkSpans(t, col, layers)
			if w.Name == PlanWide {
				if layers["profiler.observe_calls"] != 0 || layers["profiler.retrains"] != 0 {
					t.Errorf("plan_wide observed %v times, retrained %v times; it must only read the profiler",
						layers["profiler.observe_calls"], layers["profiler.retrains"])
				}
				if layers["planner.plan_calls"] < float64(spec.Ops()) {
					t.Errorf("planner.plan_calls %v < %d requests", layers["planner.plan_calls"], spec.Ops())
				}
			} else {
				if layers["profiler.observe_calls"] == 0 || layers["scheduler.decide_calls"] == 0 || layers["planner.plan_calls"] == 0 {
					t.Errorf("a hook never fired: observe %v, decide %v, plan %v",
						layers["profiler.observe_calls"], layers["scheduler.decide_calls"], layers["planner.plan_calls"])
				}
				if layers["profiler.observe_calls"] != layers["profiler.retrains"] {
					t.Errorf("observe callbacks %v, profiler generations %v: an observation was not stamped",
						layers["profiler.observe_calls"], layers["profiler.retrains"])
				}
			}

			data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
			if len(lines) != len(col.Spans) {
				t.Errorf("trace file has %d lines, collector %d spans", len(lines), len(col.Spans))
			}
			var first Span
			if err := json.Unmarshal(lines[0], &first); err != nil || first.Name != SpanEpisode || first.Parent != -1 {
				t.Errorf("first span %+v (%v), want the episode root", first, err)
			}
		})
	}
}

// The untraced pass always completes an episode, stops when another would
// overrun the budget, and feeds setup_s from at least setupRepeats set-ups.
func TestUntracedPassBudget(t *testing.T) {
	spec := mustGenerate(t, SteadyText, 42, true)
	episodes, setups, err := untracedPass(spec, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(episodes) != 1 || len(setups) != setupRepeats {
		t.Errorf("budget of 1ns: %d episodes, %d set-ups; want 1 and %d", len(episodes), len(setups), setupRepeats)
	}
	// Sized by the host's own pace, so a slow moment cannot fail it.
	start := time.Now()
	if _, err := runEpisode(spec, nil); err != nil {
		t.Fatal(err)
	}
	budget := 8 * time.Since(start)
	start = time.Now()
	episodes, setups, err = untracedPass(spec, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(episodes) < 2 || len(setups) < len(episodes) {
		t.Errorf("budget of %v: %d episodes, %d set-ups", budget, len(episodes), len(setups))
	}
	if took := time.Since(start); took > 2*budget {
		t.Errorf("budget of %v took %v", budget, took)
	}
}

// Child spans lie inside their parents, self times are not negative, and
// the named spans plus the residual sum to the episode span.
func checkSpans(t *testing.T, col *Collector, layers map[string]float64) {
	t.Helper()
	const slackUs = 1e-3 // float rounding of ns/1e3
	for _, s := range col.Spans {
		if s.EndUs < s.StartUs {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			if s.ID != 0 || s.Name != SpanEpisode {
				t.Fatalf("span %d (%s) has no parent", s.ID, s.Name)
			}
			continue
		}
		p := col.Spans[s.Parent]
		if s.StartUs < p.StartUs-slackUs || s.EndUs > p.EndUs+slackUs {
			t.Fatalf("span %d (%s) [%v, %v] outside its parent %s [%v, %v]", s.ID, s.Name, s.StartUs, s.EndUs, p.Name, p.StartUs, p.EndUs)
		}
	}
	stats := col.Stats()
	for name, st := range stats {
		if st.SelfMs < -1e-6 {
			t.Errorf("%s: negative self time %v ms", name, st.SelfMs)
		}
	}
	episode := stats[SpanEpisode].BusyMs - stats[SpanProbe].BusyMs
	sum := layers["planner.plan_busy_ms"] + layers["profiler.observe_busy_ms"] +
		layers["scheduler.decide_busy_ms"] + layers["scheduler.submit_self_ms"] + layers["residual.busy_ms"]
	if math.Abs(sum-episode) > 1e-6*episode || layers["residual.busy_ms"] < 0 {
		t.Errorf("named spans + residual = %v ms, episode span less probes = %v ms (residual %v)", sum, episode, layers["residual.busy_ms"])
	}
	if r := layers["tracing.overhead_ratio"]; r <= 0 {
		t.Errorf("tracing.overhead_ratio %v", r)
	}
}

// The policy decorator forwards NeedsEstimates, so Deadline and DRF see
// the same estimates and the platform emits the same events with and
// without it.
func TestTimedPolicyPreservesBehaviour(t *testing.T) {
	for _, tc := range []struct {
		policy ires.AdmissionPolicy
		want   bool
	}{
		{ires.FairShare(8), false},
		{ires.Deadline(), true},
		{ires.DRF(nil, 8), true},
	} {
		tp := timedPolicy{inner: tc.policy, c: newCollector()}
		if tp.NeedsEstimates() != tc.want || tp.Name() != tc.policy.Name() {
			t.Errorf("%s: decorator reports NeedsEstimates=%v name=%q", tc.policy.Name(), tp.NeedsEstimates(), tp.Name())
		}
	}

	events := func(spec *Spec, col *Collector) []byte {
		su, err := setUp(spec, col)
		if err != nil {
			t.Fatal(err)
		}
		if col != nil {
			col.Begin(SpanEpisode, "")
		}
		if err := runLoop(spec, su.P, &Episode{Ops: spec.Ops()}, col, func() {}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, su.P.TraceEvents()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, name := range []string{FaultStorm, TenantMix} {
		spec := mustGenerate(t, name, 7, true)
		bare, hooked := events(spec, nil), events(spec, newCollector())
		if len(bare) == 0 || !bytes.Equal(bare, hooked) {
			t.Errorf("%s: platform trace differs with the hooks installed (%d vs %d bytes)", name, len(bare), len(hooked))
		}
	}
}

func sampleOf(values ...float64) map[string]Sample {
	m := map[string]Sample{}
	for _, def := range EndToEnd {
		m[def.Name] = newSample(values)
	}
	return m
}

// -compare: ok within the bound, regression beyond it in the worse
// direction only, unresolved when either side's own spread exceeds the
// bound; -out and -append files both read back.
func TestCompareVerdicts(t *testing.T) {
	rec := func(values ...float64) []Record {
		return []Record{{Workloads: []WorkloadResult{{Workload: SteadyText, EndToEnd: sampleOf(values...)}}}}
	}
	verdicts := func(a, b []Record) map[string]string {
		out := map[string]string{}
		for _, r := range compare(a, b) {
			out[r.Metric] = r.Verdict
		}
		return out
	}
	base := rec(100, 101, 99)
	same := verdicts(base, rec(100, 100, 102))
	up := verdicts(base, rec(130, 131, 129))
	down := verdicts(base, rec(70, 71, 69))
	noisy := verdicts(base, rec(60, 100, 140))
	for _, def := range EndToEnd {
		wantUp, wantDown := VerdictRegression, VerdictOK
		if def.Better == "higher" {
			wantUp, wantDown = VerdictOK, VerdictRegression
		}
		if same[def.Name] != VerdictOK || up[def.Name] != wantUp || down[def.Name] != wantDown || noisy[def.Name] != VerdictUnresolved {
			t.Errorf("%s (%s is better): same=%s up=%s down=%s noisy=%s",
				def.Name, def.Better, same[def.Name], up[def.Name], down[def.Name], noisy[def.Name])
		}
	}

	dir := t.TempDir()
	outFile, histFile := filepath.Join(dir, "a.json"), filepath.Join(dir, "h.jsonl")
	r := newRecord(42, 15, false)
	r.Workloads = base[0].Workloads
	if err := writeRecord(outFile, r); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := appendRecord(histFile, r); err != nil {
			t.Fatal(err)
		}
	}
	one, err := readRecords(outFile)
	if err != nil || len(one) != 1 || one[0].GoVersion == "" || one[0].NumCPU == 0 || one[0].Seed != 42 {
		t.Fatalf("-out file reads back as %+v (%v)", one, err)
	}
	two, err := readRecords(histFile)
	if err != nil || len(two) != 2 {
		t.Fatalf("-append file reads back as %d records (%v)", len(two), err)
	}
	var buf bytes.Buffer
	ok, err := runCompare(&buf, outFile, histFile)
	if err != nil || !ok || !strings.Contains(buf.String(), "ops_per_s") {
		t.Errorf("comparing a record with its own history: ok=%v err=%v\n%s", ok, err, buf.String())
	}
}

// The command line the driver uses: the last line of stdout is one JSON
// object with exactly the keys of the contract, end-to-end metrics with
// --trace 0; bad arguments exit non-zero without a result.
func TestDriverCommandLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	dir := t.TempDir()
	outFile := filepath.Join(dir, "r.json")
	code := run([]string{"--workload", SteadyText, "--seed", "7", "--seconds", "1", "--trace", "0", "-quick", "-out", outFile}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Errorf("result line keys: %v", raw)
	}
	var d DriverResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &d); err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, d.Metrics, EndToEnd, true)
	for _, def := range EndToEnd {
		if !strings.Contains(stdout.String(), def.Name) {
			t.Errorf("report does not print %s", def.Name)
		}
	}
	recs, err := readRecords(outFile)
	if err != nil || len(recs) != 1 || recs[0].Seed != 7 || len(recs[0].Workloads) != 1 ||
		len(recs[0].Workloads[0].EndToEnd["ops_per_s"].Values) != recs[0].Workloads[0].Episodes {
		t.Errorf("-out record: %+v (%v)", recs, err)
	}

	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"-compare", outFile},
		{"stray"},
	} {
		stdout.Reset()
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with %d bytes on stdout, want a non-zero exit and no result", args, code, stdout.Len())
		}
	}
}
