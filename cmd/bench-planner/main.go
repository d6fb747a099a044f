// Command bench-planner runs the tracked planner micro-benchmark suite
// (cold plan, warm replan, warm Pareto on the Fig 12 text-analytics
// workflow), plus the giant-DAG cell (a Pegasus Montage workflow at
// -giant-size operators measuring cold plan, warm replan, and the replan
// after a single engine flap under partial vs wholesale invalidation),
// verifies the warm builds reproduce the cold plans byte for byte, and
// writes the measurements to BENCH_PLANNER.json.
//
// Usage:
//
//	bench-planner [-seed N] [-docs N] [-out FILE] [-check]
//	              [-giant-size N] [-giant-engines M]
//	              [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/asap-project/ires/internal/experiments"
)

func fatal(a ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"bench-planner:"}, a...)...)
	os.Exit(1)
}

func run() error {
	seed := flag.Int64("seed", 42, "seed for the simulated environment")
	docs := flag.Int64("docs", 100_000, "workflow input size (documents)")
	out := flag.String("out", "BENCH_PLANNER.json", "output file (empty: stdout only)")
	check := flag.Bool("check", true, "fail unless warm replans evaluate no node, are >=1.5x faster and >=50% fewer allocs than cold plan, and the giant-DAG flap replan evicts <=2 entries per invalidation and costs <=1.5x a warm replan")
	giantSize := flag.Int("giant-size", 10_000, "giant-DAG operator count (0 skips the giant cell)")
	giantEngines := flag.Int("giant-engines", 6, "giant-DAG engine implementations per algorithm")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to FILE")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the benchmark run to FILE")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	report, err := experiments.RunPlannerBench(*seed, *docs)
	if err != nil {
		return err
	}
	if *giantSize > 0 {
		report.Giant, err = experiments.RunGiantDAGBench(*giantSize, *giantEngines)
		if err != nil {
			return err
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	for _, r := range report.Results {
		fmt.Printf("%-34s %10d ns/op  %9d B/op  %7d allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	fmt.Printf("replan speedup:  %.1fx (cold plan vs warm replan)\n", report.ReplanSpeedup)
	fmt.Printf("alloc reduction: %.0f%%\n", report.AllocReduction*100)
	fmt.Printf("warm identical:  %v   cache hits/misses: %d/%d (epoch %d)   warm replan misses/rows: %d/%d\n",
		report.WarmIdentical, report.CacheHits, report.CacheMisses, report.CacheEpoch,
		report.WarmReplanMisses, report.WarmReplanRows)
	if g := report.Giant; g != nil {
		fmt.Printf("giant DAG: %s, %d operators, %d engines/algorithm\n", g.Category, g.Operators, g.Engines)
		for _, r := range g.Results {
			fmt.Printf("%-34s %10d ns/op  %9d B/op  %7d allocs/op\n",
				r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		}
		fmt.Printf("partial flap speedup: %.1fx (wholesale vs partial invalidation)   partial over warm: %.2fx\n",
			g.PartialFlapSpeedup, g.PartialOverWarm)
		fmt.Printf("flap identical: %v   partial invalidations: %d   evicted entries: %d\n",
			g.FlapIdentical, g.PartialInvalidations, g.EvictedEntries)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", *out)
	}

	if *check {
		// What a warm replan promises is that it evaluates no node and
		// builds no row, so that is gated on exact counts. The speed-up
		// divides by the cold plan and falls whenever cold evaluation gets
		// cheaper (6.2x before PR 17, 3.1-4.7x after, the memo working the
		// same): it stays only as a floor no working memo can miss.
		if report.WarmReplanMisses != 0 || report.WarmReplanRows != 0 {
			return fmt.Errorf("warm replans evaluated %d nodes and built %d rows; a warm replan does neither",
				report.WarmReplanMisses, report.WarmReplanRows)
		}
		if report.ReplanSpeedup < 1.5 {
			return fmt.Errorf("warm replan speedup %.2fx below the 1.5x floor", report.ReplanSpeedup)
		}
		if report.AllocReduction < 0.5 {
			return fmt.Errorf("allocation reduction %.0f%% below the 50%% floor", report.AllocReduction*100)
		}
		if !report.WarmIdentical {
			return fmt.Errorf("warm plans diverged from cold references")
		}
		if g := report.Giant; g != nil {
			// What partial invalidation promises, stated without the
			// wholesale baseline in the denominator: a flap evicts a handful
			// of entries, and replanning after it costs about a warm replan.
			if g.EvictedEntries > 2*g.PartialInvalidations {
				return fmt.Errorf("giant-DAG flaps evicted %d entries over %d partial invalidations, above 2 per invalidation",
					g.EvictedEntries, g.PartialInvalidations)
			}
			if g.PartialOverWarm > 1.5 {
				return fmt.Errorf("giant-DAG partial flap replan costs %.2fx a warm replan, above the 1.5x ceiling", g.PartialOverWarm)
			}
			if !g.FlapIdentical {
				return fmt.Errorf("giant-DAG flap replans diverged from cold references")
			}
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fatal(err)
	}
}
