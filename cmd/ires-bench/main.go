// Command ires-bench is the repo's one evaluation command. It walks the cell
// table in internal/experiments: the tables and figures of the paper's
// evaluation (D3.3 §4 plus the MuSQLE appendix) and the tracked benchmarks
// behind the BENCH_*.json baselines. Every selected cell prints its reports;
// a tracked cell also writes its baseline into -out and is held to its gate,
// and a failed cell or gate is a non-zero exit. See EXPERIMENTS.md for the
// cell table and the paper-vs-measured comparison.
//
// Usage:
//
//	ires-bench [-seed N] [-quick] [-only FIG11,CKPT,...] [-out DIR]
//	           [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/asap-project/ires/internal/experiments"
)

func run() error {
	seed := flag.Int64("seed", 42, "seed for every stochastic component")
	quick := flag.Bool("quick", false, "reduced figure sweeps for a fast pass (tracked baselines are never reduced)")
	only := flag.String("only", "", "comma-separated cell ids to run (default: all)")
	out := flag.String("out", "", "directory to write the selected tracked cells' BENCH_*.json into (empty: print only)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected cells to FILE")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the selected cells to FILE")
	flag.Parse()

	cells, err := experiments.Select(*only)
	if err != nil {
		return err
	}
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

	failed := 0
	for _, c := range cells {
		if err := experiments.RunCell(os.Stdout, c, experiments.Params{Seed: *seed, Quick: *quick}, *out); err != nil {
			fmt.Fprintln(os.Stderr, "ires-bench:", err)
			failed++
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
	if failed > 0 {
		return fmt.Errorf("%d cell(s) failed", failed)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ires-bench:", err)
		os.Exit(1)
	}
}
