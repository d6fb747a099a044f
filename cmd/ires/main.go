// Command ires is the IReS platform CLI. It loads an asapLibrary-style
// directory (the D3.3 §3 format: datasets/, operators/, abstractOperators/,
// abstractWorkflows/<name>/graph), materializes a named abstract workflow
// into the optimal multi-engine plan, and optionally executes it on the
// simulated cluster.
//
// Usage:
//
//	ires -lib <dir> [-workflow <name>] [-policy time|cost|balanced]
//	     [-profile] [-execute] [-kill <engine>] [-dot]
//	     [-fault-prob p] [-fault-seed n] [-straggler p] [-crash-node node@sec]
//	     [-retries n] [-timeout-factor f] [-breaker n]
//	     [-trace] [-trace-out file.jsonl] [-trace-dot file.dot]
//
// Without -workflow, the available workflows and registered operators are
// listed.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/vtime"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ires:", err)
		os.Exit(1)
	}
}

func run() error {
	lib := flag.String("lib", "", "asapLibrary-style directory to load (required)")
	workflowName := flag.String("workflow", "", "abstract workflow to materialize")
	policy := flag.String("policy", "time", "optimization policy: time|cost|balanced")
	doProfile := flag.Bool("profile", true, "profile operators offline before planning")
	execute := flag.Bool("execute", false, "execute the materialized plan on the simulated cluster")
	kill := flag.String("kill", "", "engine to mark unavailable before planning (what-if)")
	dot := flag.Bool("dot", false, "print the abstract workflow in Graphviz format")
	seed := flag.Int64("seed", 1, "simulation seed")
	faultProb := flag.Float64("fault-prob", 0, "per-attempt transient failure probability to inject (0 disables)")
	faultSeed := flag.Int64("fault-seed", 0, "seed of the fault schedule (default: -seed)")
	straggler := flag.Float64("straggler", 0, "probability a run straggles (slowed 3x)")
	crashNode := flag.String("crash-node", "", "inject a node crash, format node@seconds (e.g. node0@40)")
	retries := flag.Int("retries", 1, "max same-engine attempts per step before replanning")
	timeoutFactor := flag.Float64("timeout-factor", 0, "speculate when a step exceeds this multiple of its predicted time (0 disables)")
	breaker := flag.Int("breaker", 0, "consecutive failures that blacklist an engine (0 disables)")
	traceStdout := flag.Bool("trace", false, "dump the structured event log (JSONL) to stdout at the end")
	traceOut := flag.String("trace-out", "", "write the structured event log (JSONL) to this file")
	traceDot := flag.String("trace-dot", "", "write a Gantt-style Graphviz timeline of the execution to this file")
	flag.Parse()

	if *lib == "" {
		flag.Usage()
		return fmt.Errorf("-lib is required")
	}
	var pol ires.Policy
	switch *policy {
	case "time":
		pol = ires.MinTime
	case "cost":
		pol = ires.MinCost
	case "balanced":
		pol = ires.Balanced
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	p, err := ires.NewPlatform(ires.Options{
		Seed:             *seed,
		Policy:           pol,
		Retry:            ires.RetryPolicy{MaxAttempts: *retries},
		TimeoutFactor:    *timeoutFactor,
		BreakerThreshold: *breaker,
	})
	if err != nil {
		return err
	}
	workflows, err := p.LoadLibraryDir(*lib)
	if err != nil {
		return err
	}

	if *workflowName == "" {
		fmt.Println("abstract workflows:")
		names := make([]string, 0, len(workflows))
		for n := range workflows {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			g := workflows[n]
			fmt.Printf("  %s (%d nodes, target %s)\n", n, g.Len(), g.Target)
		}
		fmt.Println("materialized operators:")
		for _, mo := range p.Library.Operators() {
			fmt.Printf("  %s [%s/%s]\n", mo.Name, mo.Engine(), mo.Algorithm())
		}
		return nil
	}

	g, ok := workflows[*workflowName]
	if !ok {
		return fmt.Errorf("unknown workflow %q (run without -workflow to list)", *workflowName)
	}
	if *dot {
		fmt.Println(g.DOT())
	}

	if *doProfile {
		for _, mo := range p.Library.Operators() {
			space := ires.ProfileSpace{
				Records:        []int64{1_000, 10_000, 100_000, 1_000_000},
				BytesPerRecord: 1_000,
				Resources: []engine.Resources{
					{Nodes: 1, CoresPerN: 2, MemMBPerN: 3456},
					{Nodes: 16, CoresPerN: 2, MemMBPerN: 3456},
				},
			}
			if _, err := p.ProfileOperator(mo.Name, space); err != nil {
				return fmt.Errorf("profiling %s: %w", mo.Name, err)
			}
		}
		fmt.Printf("profiled %d operators\n", p.Library.Len())
	}
	if *kill != "" {
		p.SetEngineAvailable(*kill, false)
		fmt.Printf("engine %s marked unavailable\n", *kill)
	}
	if *faultProb > 0 || *straggler > 0 || *crashNode != "" {
		cfg := ires.FaultConfig{
			Seed:      *faultSeed,
			Default:   ires.FaultTransient{FailProb: *faultProb},
			Straggler: ires.StragglerFaults{Prob: *straggler},
		}
		if cfg.Seed == 0 {
			cfg.Seed = *seed
		}
		if *crashNode != "" {
			node, at, err := parseCrash(*crashNode)
			if err != nil {
				return err
			}
			cfg.NodeCrashes = []ires.NodeCrash{{Node: node, At: at}}
		}
		if err := p.InjectFaults(cfg); err != nil {
			return err
		}
		fmt.Printf("fault injection armed (prob %.2f, straggler %.2f)\n", *faultProb, *straggler)
	}

	plan, err := p.Plan(g)
	if err != nil {
		return err
	}
	fmt.Print(plan.Describe())

	if *execute {
		res, err := p.Execute(g, plan)
		if err != nil {
			return err
		}
		fmt.Printf("executed in %v (simulated), cost %.1f units, %d replans\n",
			res.Makespan, res.TotalCostUnits, res.Replans)
		if res.Retries+res.SpeculativeLaunches+res.ContainersLost > 0 {
			fmt.Printf("recovery: %d retries, %d/%d speculative wins, %d containers lost\n",
				res.Retries, res.SpeculativeWins, res.SpeculativeLaunches, res.ContainersLost)
		}
		for _, log := range res.StepLog {
			status := "ok"
			if log.Failed {
				status = "FAILED: " + log.Failure
			}
			fmt.Printf("  %-40s %-12s %10v -> %10v  %s\n", log.Name, log.Engine, log.Start, log.End, status)
		}
		st := p.FaultStats()
		if st.Transient+st.Stragglers+st.Outages+st.NodeCrash > 0 {
			fmt.Printf("faults injected: %d transient, %d straggled, %d outages, %d node crashes\n",
				st.Transient, st.Stragglers, st.Outages, st.NodeCrash)
		}
		if bl := p.BlacklistedEngines(); len(bl) > 0 {
			fmt.Printf("circuit-broken engines: %s\n", strings.Join(bl, ", "))
		}
	}
	return dumpTrace(p, *traceStdout, *traceOut, *traceDot)
}

// dumpTrace writes the recorded event log as JSONL (stdout and/or a file) and
// optionally renders the Gantt-style DOT timeline.
func dumpTrace(p *ires.Platform, toStdout bool, outPath, dotPath string) error {
	if !toStdout && outPath == "" && dotPath == "" {
		return nil
	}
	events := p.TraceEvents()
	if toStdout {
		if err := trace.WriteJSONL(os.Stdout, events); err != nil {
			return err
		}
	}
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		if err := trace.WriteJSONL(f, events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", len(events), outPath)
	}
	if dotPath != "" {
		if err := os.WriteFile(dotPath, []byte(trace.GanttDOT(events)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote execution timeline to %s\n", dotPath)
	}
	return nil
}

// parseCrash parses -crash-node values of the form "node0@40" (node name and
// the virtual time of the crash in seconds).
func parseCrash(s string) (string, time.Duration, error) {
	node, secStr, ok := strings.Cut(s, "@")
	if !ok || node == "" {
		return "", 0, fmt.Errorf("bad -crash-node %q: want node@seconds", s)
	}
	sec, err := strconv.ParseFloat(secStr, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad -crash-node %q: want node@seconds", s)
	}
	at, err := vtime.Seconds(sec)
	if err != nil {
		return "", 0, fmt.Errorf("bad -crash-node %q: %w", s, err)
	}
	return node, at, nil
}
