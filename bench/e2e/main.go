// Command e2e is the end-to-end benchmark of the composed platform: a
// workflow run travelling submit -> plan -> admit -> lease -> execute ->
// observe -> trace, measured as one machine and then attributed layer by
// layer from outside. See bench/README.md.
//
//	go run ./bench/e2e                        # all four workloads, untraced then traced
//	go run ./bench/e2e -workload steady_text  # one workload
//	go run ./bench/e2e -compare a.json b.json # judge B against A
//
// The benchmark driver runs it through bench/run.sh as
//
//	<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// setupRepeats is how many set-ups feed the setup_s median of one run.
const setupRepeats = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 42, "workload seed: Options.Seed, request order, sizes, tenants")
	seconds := fs.Int("seconds", 15, "untraced measuring budget per workload, wall seconds (at least one episode always completes)")
	traceMode := fs.Int("trace", -1, "0: untraced pass only (end-to-end metrics); 1: traced pass only (per-layer metrics); default both")
	quick := fs.Bool("quick", false, "test-size episodes (seconds, not minutes; numbers mean nothing)")
	traceDir := fs.String("tracedir", "bench/out", "directory for trace-<workload>.jsonl")
	out := fs.String("out", "", "write the record of this invocation (metrics, samples, environment) to this JSON file")
	appendTo := fs.String("append", "", "append the record as one line to this JSONL history")
	cmp := fs.Bool("compare", false, "compare two record files given as arguments: A (parent) then B (change)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "e2e: -compare takes two record files")
			return 2
		}
		ok, err := runCompare(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}

	var names []string
	for _, w := range Workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 || fs.NArg() != 0 || *traceMode < -1 || *traceMode > 1 || *seconds < 1 {
		fmt.Fprintf(stderr, "e2e: bad arguments (workloads: %s, %s, %s, %s)\n", SteadyText, TenantMix, FaultStorm, PlanWide)
		return 2
	}

	rec := newRecord(*seed, *seconds, *quick)
	failed := false
	for _, name := range names {
		spec, err := Generate(name, *seed, *quick)
		if err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 2
		}
		res, err := measure(spec, time.Duration(*seconds)*time.Second, *traceMode, *traceDir)
		if err != nil {
			fmt.Fprintf(stderr, "e2e: %s: %v\n", name, err)
			return 1
		}
		printResult(stdout, res)
		for _, e := range res.Errors {
			fmt.Fprintf(stderr, "e2e: %s: CHECK FAILED: %s\n", name, e)
			failed = true
		}
		rec.Workloads = append(rec.Workloads, *res)
	}

	if *out != "" || *appendTo != "" {
		rec.GitSHA = gitSHA()
	}
	if *out != "" {
		if err := writeRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
	}
	if *appendTo != "" {
		if err := appendRecord(*appendTo, rec); err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	if len(rec.Workloads) == 1 {
		// The driver's contract: one JSON object, last line of stdout.
		line, err := json.Marshal(driverResult(&rec.Workloads[0]))
		if err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

// measure runs the passes traceMode selects on one workload.
func measure(spec *Spec, budget time.Duration, traceMode int, traceDir string) (*WorkloadResult, error) {
	res := &WorkloadResult{Workload: spec.Workload, Attempted: spec.Ops()}
	var ref *Episode
	if traceMode != 1 {
		episodes, setups, err := untracedPass(spec, budget)
		if err != nil {
			return nil, err
		}
		summarize(res, episodes, setups)
		ref = medianEpisode(episodes)
	}
	if traceMode != 0 {
		if ref == nil {
			// Traced pass alone: one untraced episode is still needed as
			// the base of the overhead ratio and of the digest check.
			var err error
			if ref, err = runEpisode(spec, nil); err != nil {
				return nil, err
			}
			res.Episodes, res.Failed, res.VDigest = 1, ref.Failed, ref.VDigest
			res.Errors = append(res.Errors, ref.Errors...)
		}
		layers, ep, _, err := tracedPass(spec, ref, traceDir)
		if err != nil {
			return nil, err
		}
		res.PerLayer = layers
		res.Errors = append(res.Errors, ep.Errors...)
	}
	return res, nil
}

// untracedPass repeats episodes until the budget is spent — another one
// starts only if, at the pace of the last, it would end inside the budget —
// and always completes at least one. It then sets up more platforms, if
// needed, so that setup_s is a median of setupRepeats samples. Set-ups are
// returned as segments: raw wall and the host slowdown around each.
func untracedPass(spec *Spec, budget time.Duration) ([]*Episode, []Segment, error) {
	var episodes []*Episode
	var setups []Segment
	start := time.Now()
	for {
		t := time.Now()
		ep, err := runEpisode(spec, nil)
		if err != nil {
			return nil, nil, err
		}
		episodes = append(episodes, ep)
		setups = append(setups, ep.SetupSeg)
		if time.Since(start)+time.Since(t) > budget {
			break
		}
	}
	for len(setups) < setupRepeats {
		su, err := setUp(spec, nil)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, su.Seg)
	}
	return episodes, setups, nil
}

// medianEpisode picks the episode whose timed region is nearest the median.
func medianEpisode(episodes []*Episode) *Episode {
	secs := make([]float64, len(episodes))
	for i, ep := range episodes {
		secs[i] = ep.CalSec()
	}
	target := median(secs)
	best := 0
	for i := range episodes {
		if math.Abs(secs[i]-target) < math.Abs(secs[best]-target) {
			best = i
		}
	}
	return episodes[best]
}

// summarize folds the episodes of the untraced pass into the end-to-end
// metrics (median over episodes, samples kept) and runs the cross-episode
// output checks.
func summarize(res *WorkloadResult, episodes []*Episode, setups []Segment) {
	res.Episodes = len(episodes)
	res.VDigest = episodes[0].VDigest
	cols := map[string][]float64{}
	var earlyRate, rawRate, slowdown []float64
	for _, ep := range episodes {
		ops, n := float64(ep.Ops), len(ep.Segments)
		cols["ops_per_s"] = append(cols["ops_per_s"], ep.rate(0, n))
		cols["late_ops_per_s"] = append(cols["late_ops_per_s"], ep.rate(ep.Late, n))
		earlyRate = append(earlyRate, ep.rate(0, ep.Late))
		rawRate = append(rawRate, ops/ep.WallSec())
		slowdown = append(slowdown, ep.WallSec()/ep.CalSec())
		cols["allocs_per_op"] = append(cols["allocs_per_op"], float64(ep.Mallocs)/ops)
		cols["alloc_kb_per_op"] = append(cols["alloc_kb_per_op"], float64(ep.AllocB)/1024/ops)
		cols["live_heap_mb"] = append(cols["live_heap_mb"], float64(ep.LiveHeap)/(1<<20))
		if ep.Failed > res.Failed {
			res.Failed = ep.Failed
		}
		res.Errors = append(res.Errors, ep.Errors...)
		if ep.VDigest != res.VDigest {
			res.Errors = append(res.Errors, fmt.Sprintf("vdigest %s differs from the first episode's %s", ep.VDigest, res.VDigest))
		}
	}
	// A set-up is too short for the two probes around it to say much, so
	// set-up times are calibrated by every probe of the run.
	probes := append([]Segment(nil), setups...)
	for _, ep := range episodes {
		probes = append(probes, ep.Segments...)
	}
	_, rawSec, calSec := calibrated(probes)
	for _, su := range setups {
		cols["setup_s"] = append(cols["setup_s"], su.Wall.Seconds()*calSec/rawSec)
	}
	res.EndToEnd = make(map[string]Sample, len(EndToEnd))
	for _, def := range EndToEnd {
		res.EndToEnd[def.Name] = newSample(cols[def.Name])
	}
	res.Derived = map[string]float64{
		// The ROADMAP's gate quantity. A diagnostic, not a gated metric: as
		// a ratio it would penalise a change that only speeds up the early
		// half.
		"flatness":     ratio(res.EndToEnd["late_ops_per_s"].Median, median(earlyRate)),
		"failed_share": ratio(float64(res.Failed), float64(res.Attempted)),
		// What the host was doing: raw wall-clock throughput and the mean
		// slowdown the probes saw (raw seconds / calibrated seconds).
		"raw_ops_per_s": median(rawRate),
		"host_slowdown": median(slowdown),
	}
}

// DriverMetric is one metric value of the driver's result line.
type DriverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// DriverResult is the object the benchmark driver reads.
type DriverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]DriverMetric `json:"metrics"`
}

func driverResult(res *WorkloadResult) DriverResult {
	d := DriverResult{
		Correct:   len(res.Errors) == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]DriverMetric{},
	}
	if res.EndToEnd != nil {
		for _, def := range EndToEnd {
			d.Metrics[def.Name] = DriverMetric{res.EndToEnd[def.Name].Median, def.Unit}
		}
	}
	if res.PerLayer != nil {
		for _, def := range PerLayer {
			d.Metrics[def.Name] = DriverMetric{res.PerLayer[def.Name], def.Unit}
		}
	}
	return d
}

func arrow(better string) string {
	if better == "higher" {
		return "higher is better"
	}
	return "lower is better"
}

// printResult prints every metric of one workload by name, with its unit,
// direction and (end-to-end) regression bound.
func printResult(w io.Writer, res *WorkloadResult) {
	fmt.Fprintf(w, "== %s: %d episode(s), %d ops attempted, %d failed, vdigest %s\n",
		res.Workload, res.Episodes, res.Attempted, res.Failed, res.VDigest)
	if res.EndToEnd != nil {
		fmt.Fprintf(w, "  end-to-end (tracing off; median over episodes [q1 .. q3])\n")
		for _, def := range EndToEnd {
			s := res.EndToEnd[def.Name]
			fmt.Fprintf(w, "    %-18s %14.4f %-6s [%.4f .. %.4f] n=%d  %s, bound %.0f%%\n",
				def.Name, s.Median, def.Unit, s.Q1, s.Q3, len(s.Values), arrow(def.Better), 100*def.Bound)
		}
		fmt.Fprintf(w, "    %-18s %14.4f %-6s (derived: late_ops_per_s / first-half ops per second; not gated)\n", "flatness", res.Derived["flatness"], "ratio")
		fmt.Fprintf(w, "    %-18s %14.4f %-6s (derived: failed / attempted; any increase is a regression)\n", "failed_share", res.Derived["failed_share"], "ratio")
		fmt.Fprintf(w, "    %-18s %14.4f %-6s (derived: ops per raw wall second, at a host slowdown of %.3f)\n", "raw_ops_per_s", res.Derived["raw_ops_per_s"], "1/s", res.Derived["host_slowdown"])
	}
	if res.PerLayer != nil {
		fmt.Fprintf(w, "  per-layer (one traced episode, then the layer cells)\n")
		for _, def := range PerLayer {
			fmt.Fprintf(w, "    %-32s %16.4f %-6s %s\n", def.Name, res.PerLayer[def.Name], def.Unit, arrow(def.Better))
		}
	}
}
