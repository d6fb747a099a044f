package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestFig11Shape(t *testing.T) {
	r, err := Fig11(42)
	if err != nil {
		t.Fatal(err)
	}
	java, _ := r.SeriesByLabel("Java")
	hama, _ := r.SeriesByLabel("Hama")
	spark, _ := r.SeriesByLabel("Spark")
	iresS, ok := r.SeriesByLabel("IReS")
	if !ok {
		t.Fatal("missing IReS series")
	}

	// Regime winners.
	jy, _ := java.YAt(10_000)
	hy, _ := hama.YAt(10_000)
	sy, _ := spark.YAt(10_000)
	if !(jy < hy && jy < sy) {
		t.Errorf("10k edges: Java should win (%v %v %v)", jy, hy, sy)
	}
	jy, _ = java.YAt(10_000_000)
	hy, _ = hama.YAt(10_000_000)
	sy, _ = spark.YAt(10_000_000)
	if !(hy < jy && hy < sy) {
		t.Errorf("10M edges: Hama should win (%v %v %v)", jy, hy, sy)
	}
	// Memory walls.
	if !failedAt(java, 100_000_000) || !failedAt(hama, 100_000_000) {
		t.Error("Java and Hama must fail at 100M edges")
	}
	if failedAt(spark, 100_000_000) || failedAt(iresS, 100_000_000) {
		t.Error("Spark and IReS must survive 100M edges")
	}
	// IReS tracks the best single engine within overhead everywhere.
	for _, x := range []float64{1e4, 1e5, 1e6, 1e7, 1e8} {
		iy, ok := iresS.YAt(x)
		if !ok {
			t.Fatalf("IReS failed at %v", x)
		}
		best := bestSingleAt(r, x)
		if iy > best*1.5+5 {
			t.Errorf("IReS at %v edges: %.1fs vs best single %.1fs", x, iy, best)
		}
	}
}

// failedAt reports whether the series has no successful point at x.
func failedAt(s Series, x float64) bool {
	_, ok := s.YAt(x)
	return !ok
}

// bestSingleAt is the fastest single-engine time at x, or 0 when every
// single engine failed there.
func bestSingleAt(r *Report, x float64) float64 {
	best := 0.0
	found := false
	for _, s := range r.Series {
		if s.Label == "IReS" {
			continue
		}
		if y, ok := s.YAt(x); ok && (!found || y < best) {
			best, found = y, true
		}
	}
	return best
}

func TestFig12HybridSpeedup(t *testing.T) {
	r, err := Fig12(42)
	if err != nil {
		t.Fatal(err)
	}
	// Hybrid plans must appear somewhere in the mid-range.
	hybridSeen := false
	for _, n := range r.Notes {
		if strings.Contains(n, "hybrid multi-engine plans") {
			hybridSeen = true
		}
	}
	if !hybridSeen {
		t.Error("no hybrid plan chosen anywhere (paper: hybrid zone 10k-40k docs)")
	}
	// speedup is IReS's speedup over the best single engine at x (>1 means
	// IReS wins); ok is false when IReS or every single engine failed there.
	iresS, _ := r.SeriesByLabel("IReS")
	speedup := func(x float64) (sp float64, ok bool) {
		iy, ok := iresS.YAt(x)
		best := bestSingleAt(r, x)
		return best / iy, ok && best > 0
	}
	// IReS must strictly beat the best single engine at at least one size —
	// the paper's headline up-to-30% claim.
	beat := false
	for _, x := range []float64{1e3, 3e3, 5e3, 1e4, 3e4, 1e5} {
		if sp, ok := speedup(x); ok && sp > 1.02 {
			beat = true
		}
	}
	if !beat {
		t.Error("IReS never beat the fastest single-engine execution")
	}
	// And must never be drastically worse than the best single engine.
	// (At the very smallest sizes the fixed planning/launch overheads and
	// boundary model error dominate — the paper's "overhead is visible for
	// small input sizes" — so the guard is looser there.)
	for _, x := range []float64{1e4, 1e5, 1e6} {
		if sp, ok := speedup(x); ok && sp < 0.65 {
			t.Errorf("IReS at %v docs is %.2fx the best single engine", x, sp)
		}
	}
	if sp, ok := speedup(1e3); ok && sp < 0.45 {
		t.Errorf("IReS at 1k docs is %.2fx the best single engine", sp)
	}
	// scikit OOMs at 1M docs.
	scikit, _ := r.SeriesByLabel("scikit")
	if !failedAt(scikit, 1_000_000) {
		t.Error("scikit should fail at 1M documents")
	}
}

func TestFig13Shape(t *testing.T) {
	r, err := Fig13(42)
	if err != nil {
		t.Fatal(err)
	}
	memsql, _ := r.SeriesByLabel("MemSQL")
	postgres, _ := r.SeriesByLabel("PostgreSQL")
	iresS, _ := r.SeriesByLabel("IReS")
	// MemSQL works at <=2GB and fails beyond (intermediate results exceed
	// cluster memory).
	if failedAt(memsql, 1) || failedAt(memsql, 2) {
		t.Error("MemSQL should handle <=2GB")
	}
	for _, x := range []float64{5, 10, 20, 50} {
		if !failedAt(memsql, x) {
			t.Errorf("MemSQL should fail at %vGB", x)
		}
	}
	// PostgreSQL's transfer costs are prohibitive at scale.
	py, _ := postgres.YAt(50)
	iy, ok := iresS.YAt(50)
	if !ok || py < iy*3 {
		t.Errorf("PostgreSQL at 50GB (%.0fs) should be far above IReS (%.0fs)", py, iy)
	}
	// IReS stays within 25% of the best feasible choice at every scale.
	for _, x := range []float64{1, 2, 5, 10, 20, 50} {
		iy, ok := iresS.YAt(x)
		if !ok {
			t.Fatalf("IReS failed at %vGB", x)
		}
		if best := bestSingleAt(r, x); iy > best*1.25 {
			t.Errorf("IReS at %vGB: %.0fs vs best single %.0fs", x, iy, best)
		}
	}
}

// The two planner-scaling tests compare wall-clock times that are a fraction
// of a millisecond at the small end, on a host where the rest of the suite
// runs beside them. Each point is a median of five cold plans, and an order
// has to come out wrong three measurements running to fail: a preempted
// measurement inverts one now and then (the single-sample version of these
// tests failed 3 times in 80 under a parallel `go test ./...`), a planner
// that stopped scaling inverts it every time.
func timingHolds(t *testing.T, measure func() []string) {
	t.Helper()
	var wrong []string
	for attempt := 0; attempt < 3; attempt++ {
		if wrong = measure(); len(wrong) == 0 {
			return
		}
	}
	for _, w := range wrong {
		t.Error(w)
	}
}

func TestFig14PlannerScaling(t *testing.T) {
	timingHolds(t, func() (wrong []string) {
		reports, err := Fig14([]int{30, 100, 300}, []int{4, 8}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != 2 {
			t.Fatalf("reports = %d", len(reports))
		}
		for _, r := range reports {
			for _, s := range r.Series {
				for _, p := range s.Points {
					if p.Y > 5.0 {
						wrong = append(wrong, fmt.Sprintf("%s/%s: %.2fs at %v nodes exceeds the paper's bound", r.ID, s.Label, p.Y, p.X))
					}
				}
				// Monotone-ish growth with size.
				y30, _ := s.YAt(30)
				y300, _ := s.YAt(300)
				if y300 < y30 {
					wrong = append(wrong, fmt.Sprintf("%s/%s: time shrank with workflow size", r.ID, s.Label))
				}
			}
		}
		// More engines cost more planning time (m^2 term), comparing totals.
		tot := func(r *Report) float64 {
			sum := 0.0
			for _, s := range r.Series {
				for _, p := range s.Points {
					sum += p.Y
				}
			}
			return sum
		}
		if tot(reports[1]) <= tot(reports[0]) {
			wrong = append(wrong, "8 engines should plan slower than 4 engines in aggregate")
		}
		return wrong
	})
}

func TestFig15EngineScaling(t *testing.T) {
	timingHolds(t, func() (wrong []string) {
		reports, err := Fig15([]int{30, 100}, []int{2, 8}, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reports {
			two, ok2 := r.SeriesByLabel("2 engines")
			eight, ok8 := r.SeriesByLabel("8 engines")
			if !ok2 || !ok8 {
				t.Fatalf("%s: missing series", r.ID)
			}
			y2, _ := two.YAt(100)
			y8, _ := eight.YAt(100)
			if y8 <= y2 {
				wrong = append(wrong, fmt.Sprintf("%s: 8 engines (%.4fs) not slower than 2 (%.4fs)", r.ID, y8, y2))
			}
		}
		return wrong
	})
}

func TestFig16aErrorDrops(t *testing.T) {
	r, err := Fig16a(60, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Series {
		first := s.Points[0].Y
		last := s.Points[len(s.Points)-1].Y
		if last >= first {
			t.Errorf("%s: error did not drop (%.3f -> %.3f)", s.Label, first, last)
		}
		// Paper: below 30% after ~50 runs.
		y, ok := s.YAt(50)
		if !ok {
			y = last
		}
		if y > 0.30 {
			t.Errorf("%s: error at 50 runs = %.3f, want < 0.30", s.Label, y)
		}
	}
}

func TestFig16bSpikeAndRecovery(t *testing.T) {
	r, err := Fig16b(160, 80, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Series[0]
	before, _ := s.YAt(80)
	spike, _ := s.YAt(90)
	final := s.Points[len(s.Points)-1].Y
	if spike <= before {
		t.Errorf("no error spike after infrastructure change (%.3f -> %.3f)", before, spike)
	}
	if final >= spike {
		t.Errorf("models did not recover (spike %.3f, final %.3f)", spike, final)
	}
	if final > 0.35 {
		t.Errorf("final error %.3f too high", final)
	}
}

func TestFig17ProvisioningShape(t *testing.T) {
	timeR, costR, err := Fig17(9)
	if err != nil {
		t.Fatal(err)
	}
	maxT, _ := timeR.SeriesByLabel("max resources")
	minT, _ := timeR.SeriesByLabel("min resources")
	iresT, _ := timeR.SeriesByLabel("IReS")
	maxC, _ := costR.SeriesByLabel("max resources")
	iresC, _ := costR.SeriesByLabel("IReS")

	for _, x := range []float64{1e3, 1e4, 1e5, 1e6, 1e7} {
		tMax, _ := maxT.YAt(x)
		tMin, _ := minT.YAt(x)
		tIres, ok := iresT.YAt(x)
		if !ok {
			t.Fatalf("IReS failed at %v", x)
		}
		// IReS time close to max-resources, far from min at scale.
		if tIres > tMax*1.8+5 {
			t.Errorf("IReS time at %v: %.1f vs max-resources %.1f", x, tIres, tMax)
		}
		if x >= 1e6 && tIres > tMin*0.8 {
			t.Errorf("IReS at %v should be well below min-resources (%.1f vs %.1f)", x, tIres, tMin)
		}
		// The paper's claim: near max-resources time at no more than
		// max-resources cost. With cost exact (rate x estimated time) the
		// front's cheap end may undercut the min-resources configuration.
		cMax, _ := maxC.YAt(x)
		cIres, _ := iresC.YAt(x)
		if cIres > cMax {
			t.Errorf("IReS cost at %v (%.0f) above max-resources cost %.0f", x, cIres, cMax)
		}
	}
}

func TestFaultToleranceClaims(t *testing.T) {
	r, err := FaultTolerance(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 1 || len(r.Tables[0].Rows) != 9 {
		t.Fatalf("expected 9 rows, got %+v", r.Tables)
	}
	// Parse the table back into scenario -> strategy -> exec time.
	exec := map[string]map[string]float64{}
	for _, row := range r.Tables[0].Rows {
		if exec[row[0]] == nil {
			exec[row[0]] = map[string]float64{}
		}
		var v float64
		if _, err := sscanFloat(row[2], &v); err != nil {
			t.Fatal(err)
		}
		exec[row[0]][row[1]] = v
	}
	for scenario, byStrat := range exec {
		if byStrat["IResReplan"] > byStrat["TrivialReplan"]*1.02 {
			t.Errorf("%s: IResReplan (%.1f) worse than TrivialReplan (%.1f)",
				scenario, byStrat["IResReplan"], byStrat["TrivialReplan"])
		}
	}
	// The later the failure, the bigger the relative gain vs Trivial.
	gain := func(s string) float64 {
		return 1 - exec[s]["IResReplan"]/exec[s]["TrivialReplan"]
	}
	if gain("HelloWorld3 fails") <= gain("HelloWorld1 fails") {
		t.Errorf("late failure gain (%.2f) not above early failure gain (%.2f)",
			gain("HelloWorld3 fails"), gain("HelloWorld1 fails"))
	}
}

func sscanFloat(s string, v *float64) (int, error) {
	var parsed float64
	var frac, div float64 = 0, 1
	neg := false
	i := 0
	if i < len(s) && s[i] == '-' {
		neg = true
		i++
	}
	seenDot := false
	for ; i < len(s); i++ {
		c := s[i]
		if c == '.' {
			seenDot = true
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		if seenDot {
			div *= 10
			frac = frac*10 + float64(c-'0')
		} else {
			parsed = parsed*10 + float64(c-'0')
		}
	}
	parsed += frac / div
	if neg {
		parsed = -parsed
	}
	*v = parsed
	return 1, nil
}

func TestMusqleOptTimeBounded(t *testing.T) {
	r, err := MusqleOptTime(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Series[0].Points {
		if p.Y > 1.0 {
			t.Errorf("optimization at %v tables took %.2fs", p.X, p.Y)
		}
	}
	r2, err := MusqleEngineScaling(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Series) != 3 {
		t.Fatalf("series = %d", len(r2.Series))
	}
}

func TestMusqleExecNeverWorse(t *testing.T) {
	r, err := MusqleExec(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := r.SeriesByLabel("MuSQLE")
	for _, p := range mu.Points {
		if p.Failed {
			t.Errorf("MuSQLE failed on query %v", p.X)
			continue
		}
		for _, s := range r.Series {
			if s.Label == "MuSQLE" {
				continue
			}
			if y, ok := s.YAt(p.X); ok && p.Y > y*1.001 {
				t.Errorf("query %v: MuSQLE %.2f worse than forced %s %.2f", p.X, p.Y, s.Label, y)
			}
		}
	}
}

func TestMusqleCorrectnessAllPass(t *testing.T) {
	r, err := MusqleCorrectness(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Tables[0].Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("query %s produced wrong results", row[0])
		}
	}
}

func TestAblationDPMatchesExhaustive(t *testing.T) {
	r, err := AblationDPvsExhaustive(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range r.Notes {
		if strings.HasPrefix(n, "MISMATCH") {
			t.Error(n)
		}
	}
	dp, _ := r.SeriesByLabel("DP planner")
	ex, _ := r.SeriesByLabel("exhaustive")
	dpY, _ := dp.YAt(12)
	exY, _ := ex.YAt(12)
	if exY < dpY {
		t.Errorf("exhaustive (%.4fs) should be slower than DP (%.4fs) at 12 ops", exY, dpY)
	}
}

func TestAblationModelSelection(t *testing.T) {
	a, err := AblationModelSelection(3)
	if err != nil {
		t.Fatal(err)
	}
	rows := a.Report().Tables[0].Rows
	if len(rows) < 5 {
		t.Fatal("too few strategies compared")
	}
	// The bounded selection picks what the full grid picks. Nothing leads it
	// here, so it may train the whole grid: LinearRegression stands in, and
	// on this profile it is the worst family and bounds nothing.
	if err := a.Gate(); err != nil {
		t.Error(err)
	}
	var trained, grid int
	if last := rows[len(rows)-1]; last[0] != "cells trained / full grid" {
		t.Errorf("last row is %q", last)
	} else if _, err := fmt.Sscanf(last[1], "%d / %d", &trained, &grid); err != nil || trained < 5 || trained > grid || grid != 50 {
		t.Errorf("cells trained / full grid = %q (%v), want at most the 50 of 10 families x 5 folds", last[1], err)
	}
	a.Bounded = "SomethingElse"
	if err := a.Gate(); err == nil || !strings.Contains(err.Error(), "the full grid picks "+a.FullGrid) {
		t.Errorf("a diverging selection passed the gate: %v", err)
	}
}

func TestSchedContentionPoliciesDiffer(t *testing.T) {
	r, err := SchedContention(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tables) != 1 || len(r.Tables[0].Rows) != 3 {
		t.Fatalf("expected one table with 3 policy rows, got %+v", r.Tables)
	}
	// Parse the summary table back into policy -> (batch, mean makespan, peak).
	type row struct {
		batch, mean float64
		peak        string
	}
	byPolicy := map[string]row{}
	for _, tr := range r.Tables[0].Rows {
		var b, m float64
		if _, err := sscanFloat(tr[1], &b); err != nil {
			t.Fatal(err)
		}
		if _, err := sscanFloat(tr[2], &m); err != nil {
			t.Fatal(err)
		}
		byPolicy[tr[0]] = row{batch: b, mean: m, peak: tr[4]}
	}
	fifo, fair := byPolicy["FIFO"], byPolicy["FairShare(2)"]
	// FIFO never overlaps; fair-share must.
	if fifo.peak != "1" {
		t.Errorf("FIFO peak concurrency = %s, want 1", fifo.peak)
	}
	if fair.peak == "0" || fair.peak == "1" {
		t.Errorf("FairShare(2) peak concurrency = %s, want >1", fair.peak)
	}
	// The acceptance criterion: the policies produce measurably different
	// makespans on the identical burst (>5% apart both per-run and per-batch).
	relDiff := func(a, b float64) float64 {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d / b
	}
	if relDiff(fifo.mean, fair.mean) < 0.05 {
		t.Errorf("mean makespans indistinguishable: FIFO %.1fs vs FairShare(2) %.1fs", fifo.mean, fair.mean)
	}
	if relDiff(fifo.batch, fair.batch) < 0.05 {
		t.Errorf("batch completion indistinguishable: FIFO %.1fs vs FairShare(2) %.1fs", fifo.batch, fair.batch)
	}
	// Overlapped runs lease fewer nodes each, so their individual makespans
	// must stretch relative to whole-cluster FIFO runs.
	if fair.mean <= fifo.mean {
		t.Errorf("FairShare(2) mean makespan %.1fs not above FIFO %.1fs", fair.mean, fifo.mean)
	}
}

func TestReportRender(t *testing.T) {
	r := &Report{ID: "X", Title: "t", XLabel: "x", YLabel: "y"}
	r.AddSeries("a", Point{X: 1, Y: 2}, Point{X: 10, Y: 20, Failed: true})
	r.Tables = append(r.Tables, Table{Title: "tab", Header: []string{"h"}, Rows: [][]string{{"v"}}})
	r.Note("note %d", 1)
	out := r.Render()
	for _, frag := range []string{"== X: t ==", "FAIL", "tab", "note 1"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Render missing %q:\n%s", frag, out)
		}
	}
}
