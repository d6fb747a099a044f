// Command bench-sched-scale runs the tracked fleet-scale scheduling
// benchmark: a fully reserved cluster with 1k–100k queued runs, where every
// decision round is a hold-decision. It measures decision rounds per second
// (best of three windows per point) and heap allocations per round against
// the incrementally maintained indexed state, and writes the measurements to
// BENCH_SCHED_SCALE.json. The gate is what the index promises — a round
// costs O(1) in queue depth: under every policy, decisions per second at
// 100k queued runs are at least half those at 1k, and allocations per
// decision stay flat.
//
// Usage:
//
//	bench-sched-scale [-seed N] [-out FILE] [-check]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/asap-project/ires/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 42, "seed for the synthetic submission mix")
	out := flag.String("out", "BENCH_SCHED_SCALE.json", "output file (empty: stdout only)")
	check := flag.Bool("check", true, "fail unless decisions/s at the deepest queue are >= half those at the shallowest, with O(1) allocs/decision")
	flag.Parse()

	bench, err := experiments.RunSchedScaleBench(*seed, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-sched-scale:", err)
		os.Exit(1)
	}

	fmt.Printf("%d-node cluster fully reserved; hold-decision rounds over queued-run depth\n", bench.Nodes)
	for _, p := range bench.Policies {
		fmt.Printf("%s\n", p.Policy)
		for _, pt := range p.Points {
			fmt.Printf("  depth %6d  %12.0f dec/s  allocs/dec %.1f\n",
				pt.Depth, pt.DecisionsPerSec, pt.AllocsPerDecision)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-sched-scale:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(bench); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "bench-sched-scale:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench-sched-scale:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	}

	if *check {
		if err := bench.Gate(); err != nil {
			fmt.Fprintln(os.Stderr, "bench-sched-scale:", err)
			os.Exit(1)
		}
	}
}
