package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	ires "github.com/asap-project/ires"
	"github.com/asap-project/ires/internal/trace"
)

// Params is everything a caller may vary about a cell.
type Params struct {
	Seed int64
	// Quick shrinks the figure sweeps for a fast pass. Tracked baselines
	// ignore it, so a quick pass can never write a reduced BENCH_*.json.
	Quick bool
}

// Tracked is a benchmark result with an acceptance gate: Gate returns an
// error naming the first condition that does not hold.
type Tracked interface{ Gate() error }

// Cell is one row of the evaluation: a paper figure or table, or a tracked
// benchmark whose result is also written to File and held to its Gate.
type Cell struct {
	ID   string
	File string // BENCH_*.json baseline name; empty for the paper figures
	Run  func(Params) ([]*Report, Tracked, error)
}

// Cells is the whole evaluation (see the "Cells" table in EXPERIMENTS.md).
// cmd/ires-bench walks it, `make bench-*` are aliases for single cells,
// TestTrackedBaselines regenerates the machine-independent baselines from it
// and the root BenchmarkCells times the figure cells.
var Cells = []Cell{
	{ID: "FIG11", Run: one(Fig11)},
	{ID: "FIG12", Run: one(Fig12)},
	{ID: "FIG13", Run: one(Fig13)},
	{ID: "FIG14", Run: func(p Params) ([]*Report, Tracked, error) {
		s := p.sweep()
		rs, err := Fig14(s.pegasusSizes, []int{4, 8}, s.reps)
		return rs, nil, err
	}},
	{ID: "FIG15", Run: func(p Params) ([]*Report, Tracked, error) {
		s := p.sweep()
		rs, err := Fig15(s.pegasusSizes, []int{2, 4, 6, 8}, s.reps)
		return rs, nil, err
	}},
	{ID: "FIG16A", Run: func(p Params) ([]*Report, Tracked, error) {
		r, err := Fig16a(p.sweep().fig16aRuns, p.Seed)
		return []*Report{r}, nil, err
	}},
	{ID: "FIG16B", Run: func(p Params) ([]*Report, Tracked, error) {
		s := p.sweep()
		r, err := Fig16b(s.fig16bRuns, s.fig16bChangeAt, p.Seed)
		return []*Report{r}, nil, err
	}},
	{ID: "FIG17", Run: func(p Params) ([]*Report, Tracked, error) {
		timeOpt, costOpt, err := Fig17(p.Seed)
		return []*Report{timeOpt, costOpt}, nil, err
	}},
	{ID: "FIG20-22", Run: one(FaultTolerance)},
	{ID: "FAULTSWEEP", Run: one(FaultSweep)},
	{ID: "SCHED", Run: one(SchedContention)},
	{ID: "SCHEDDL", File: "BENCH_SCHED.json", Run: tracked(RunSchedDeadlineBench)},
	{ID: "CKPT", File: "BENCH_CKPT.json", Run: tracked(RunCkptBench)},
	{ID: "MQ-F4", Run: func(p Params) ([]*Report, Tracked, error) {
		r, err := MusqleOptTime(p.Seed, p.sweep().reps)
		return []*Report{r}, nil, err
	}},
	{ID: "MQ-F5", Run: func(p Params) ([]*Report, Tracked, error) {
		r, err := MusqleEngineScaling(p.Seed, p.sweep().reps)
		return []*Report{r}, nil, err
	}},
	{ID: "MQ-EXEC", Run: func(p Params) ([]*Report, Tracked, error) {
		var rs []*Report
		for _, sf := range []float64{5, 20, 50} {
			r, err := MusqleExec(p.Seed, sf)
			if err != nil {
				return nil, nil, err
			}
			rs = append(rs, r)
		}
		return rs, nil, nil
	}},
	{ID: "MQ-CORRECT", Run: one(MusqleCorrectness)},
	{ID: "ABL-DP", Run: one(AblationDPvsExhaustive)},
	{ID: "ABL-CV", Run: tracked(AblationModelSelection)},
	{ID: "DRF", File: "BENCH_DRF.json", Run: tracked(RunDRFBench)},
	{ID: "SCHEDSCALE", File: "BENCH_SCHED_SCALE.json", Run: tracked(RunSchedScaleBench)},
	{ID: "PLANNER", File: "BENCH_PLANNER.json", Run: tracked(RunPlannerBench)},
	{ID: "PREQ", File: "BENCH_PREQ.json", Run: tracked(RunPreqBench)},
}

// sweepSizes are the figure sweep sizes Params.Quick chooses between.
type sweepSizes struct {
	pegasusSizes               []int // Fig 14/15 workflow sizes
	reps                       int   // timing repetitions (Fig 14/15, MuSQLE)
	fig16aRuns                 int
	fig16bRuns, fig16bChangeAt int
}

func (p Params) sweep() sweepSizes {
	if p.Quick {
		return sweepSizes{pegasusSizes: []int{30, 100}, reps: 1, fig16aRuns: 50, fig16bRuns: 80, fig16bChangeAt: 40}
	}
	return sweepSizes{pegasusSizes: []int{30, 100, 300, 1000}, reps: 3, fig16aRuns: 100, fig16bRuns: 180, fig16bChangeAt: 100}
}

// one adapts a single-report figure that varies with the seed only.
func one(run func(seed int64) (*Report, error)) func(Params) ([]*Report, Tracked, error) {
	return func(p Params) ([]*Report, Tracked, error) {
		r, err := run(p.Seed)
		return []*Report{r}, nil, err
	}
}

// tracked adapts a tracked benchmark: its result renders itself and is
// handed back for the baseline file and the gate.
func tracked[T interface {
	Tracked
	Report() *Report
}](run func(seed int64) (T, error)) func(Params) ([]*Report, Tracked, error) {
	return func(p Params) ([]*Report, Tracked, error) {
		res, err := run(p.Seed)
		if err != nil {
			return nil, nil, err
		}
		return []*Report{res.Report()}, res, nil
	}
}

// Select resolves a comma-separated id list (case-insensitive, in the order
// requested) against Cells; empty selects every cell. An unknown id is an
// error naming the valid ones, so a typo cannot pass as an empty run.
func Select(only string) ([]Cell, error) {
	var picked []Cell
	for _, id := range strings.Split(only, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id == "" {
			continue
		}
		i := slices.IndexFunc(Cells, func(c Cell) bool { return c.ID == id })
		if i < 0 {
			return nil, fmt.Errorf("unknown cell %q; valid ids: %s", id, strings.Join(cellIDs(Cells), ","))
		}
		picked = append(picked, Cells[i])
	}
	if picked == nil {
		return Cells, nil
	}
	return picked, nil
}

func cellIDs(cells []Cell) []string {
	ids := make([]string, len(cells))
	for i, c := range cells {
		ids[i] = c.ID
	}
	return ids
}

// RunCell runs one cell: it renders the reports to w, writes the baseline to
// outDir/File when both are set, and only then returns the gate's error, so
// a failing result can still be inspected.
func RunCell(w io.Writer, c Cell, p Params, outDir string) error {
	start := time.Now()
	rs, res, err := c.Run(p)
	if err != nil {
		return fmt.Errorf("%s: %w", c.ID, err)
	}
	for _, r := range rs {
		fmt.Fprintln(w, r.Render())
	}
	if c.File != "" && outDir != "" {
		path := filepath.Join(outDir, c.File)
		var buf bytes.Buffer
		err := WriteBaseline(&buf, res)
		if err == nil {
			err = os.WriteFile(path, buf.Bytes(), 0o644)
		}
		if err != nil {
			return fmt.Errorf("%s: writing %s: %w", c.ID, path, err)
		}
		fmt.Fprintln(w, "wrote", path)
	}
	fmt.Fprintf(w, "[%s completed in %v]\n\n", c.ID, time.Since(start).Round(time.Millisecond))
	if res != nil {
		if err := res.Gate(); err != nil {
			return fmt.Errorf("%s gate: %w", c.ID, err)
		}
	}
	return nil
}

// WriteBaseline writes a tracked result in the form of every BENCH_*.json.
func WriteBaseline(w io.Writer, res Tracked) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// twice runs a fixed-seed scenario two times and reports whether both
// executions left byte-identical traces — the determinism column of every
// tracked benchmark. The first execution's result is the one reported.
func twice[T any](label string, run func() (T, error), traces func(T) []byte) (first T, deterministic bool, err error) {
	if first, err = run(); err != nil {
		return first, false, fmt.Errorf("%s: %w", label, err)
	}
	second, err := run()
	if err != nil {
		return first, false, fmt.Errorf("%s (repeat): %w", label, err)
	}
	return first, bytes.Equal(traces(first), traces(second)), nil
}

// drained closes out a platform after Drain: every run must have succeeded,
// and the result is the batch makespan (the latest finish) plus the per-run
// JSONL traces concatenated in run-id order. A recorder that aged events out
// of its window is an error: the per-run traces would be cut, and a
// determinism comparison over a cut window compares nothing.
func drained(p *ires.Platform) (batchSec float64, traces []byte, err error) {
	var ids []string
	for _, s := range p.Runs() {
		if s.Status != "succeeded" {
			return 0, nil, fmt.Errorf("run %s (%s) ended %s: %s", s.ID, s.Workflow, s.Status, s.Error)
		}
		batchSec = max(batchSec, s.FinishedSec)
		ids = append(ids, s.ID)
	}
	if n := p.Metrics().Value("ires_trace_dropped_total", nil); n > 0 {
		return 0, nil, fmt.Errorf("trace window dropped %.0f events; per-run traces are truncated", n)
	}
	sort.Strings(ids)
	var buf bytes.Buffer
	for _, id := range ids {
		fmt.Fprintf(&buf, "# run %s\n", id)
		if err := trace.WriteJSONL(&buf, p.TraceForRun(id)); err != nil {
			return 0, nil, err
		}
	}
	return batchSec, buf.Bytes(), nil
}
