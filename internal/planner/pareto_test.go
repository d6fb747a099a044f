package planner

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/asap-project/ires/internal/metadata"
	"github.com/asap-project/ires/internal/operator"
	"github.com/asap-project/ires/internal/workflow"
)

// costEstimator makes time and money trade off: fast engines are expensive.
type costEstimator map[string][2]float64 // op -> {time, money}

func (c costEstimator) Estimates(opName string, feats map[string]float64) Estimates {
	tc, ok := c[opName]
	if !ok {
		return Estimates{}
	}
	return Estimates{
		ExecTime: tc[0], Cost: tc[1], OutRecords: feats["records"], OutBytes: feats["bytes"],
		ExecTimeOK: true, CostOK: true,
	}
}

func TestParetoPlansTradeoff(t *testing.T) {
	est := costEstimator{
		// Fast-but-expensive vs slow-but-cheap alternatives per step.
		"TF_IDF_mahout": {10, 100},
		"TF_IDF_weka":   {50, 10},
		"kmeans_mahout": {10, 100},
		"kmeans_weka":   {50, 10},
	}
	p := newPlanner(t, textLib(t), est)
	plans, err := p.ParetoPlans(textWorkflow(t, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 2 {
		t.Fatalf("expected a front with alternatives, got %d plan(s)", len(plans))
	}
	// Mutually non-dominated and time-sorted.
	for i := 1; i < len(plans); i++ {
		if plans[i].EstTimeSec < plans[i-1].EstTimeSec {
			t.Fatal("front not sorted by time")
		}
		if plans[i].EstCost >= plans[i-1].EstCost {
			t.Fatalf("front member %d dominated (time %f cost %f after %f/%f)",
				i, plans[i].EstTimeSec, plans[i].EstCost, plans[i-1].EstTimeSec, plans[i-1].EstCost)
		}
	}
	// The endpoints must agree with the single-objective planners.
	minTimePlan, err := p.Plan(textWorkflow(t, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if plans[0].EstTimeSec > minTimePlan.EstTimeSec+1e-9 {
		t.Errorf("fastest front member (%.1f) slower than MinTime plan (%.1f)",
			plans[0].EstTimeSec, minTimePlan.EstTimeSec)
	}
	pCost := newPlanner(t, textLib(t), est, func(c *Config) { c.Objective = MinCost })
	minCostPlan, err := pCost.Plan(textWorkflow(t, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	last := plans[len(plans)-1]
	if last.EstCost > minCostPlan.EstCost+1e-9 {
		t.Errorf("cheapest front member (%.1f) pricier than MinCost plan (%.1f)",
			last.EstCost, minCostPlan.EstCost)
	}
	// Every front plan is structurally complete.
	for _, plan := range plans {
		if _, ok := plan.StepFor("TF_IDF"); !ok {
			t.Fatal("front plan missing TF_IDF step")
		}
		if _, ok := plan.StepFor("kmeans"); !ok {
			t.Fatal("front plan missing kmeans step")
		}
	}
}

func TestParetoSingleOptionCollapses(t *testing.T) {
	// With no trade-off (one impl strictly dominates), the front has one plan.
	est := costEstimator{
		"TF_IDF_mahout": {10, 10},
		"TF_IDF_weka":   {50, 50},
		"kmeans_mahout": {10, 10},
		"kmeans_weka":   {50, 50},
	}
	p := newPlanner(t, textLib(t), est)
	plans, err := p.ParetoPlans(textWorkflow(t, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 {
		t.Fatalf("expected a single-point front, got %d", len(plans))
	}
	if s, _ := plans[0].StepFor("TF_IDF"); s.Op.Name != "TF_IDF_mahout" {
		t.Fatalf("dominant implementation not chosen: %s", s.Op.Name)
	}
}

func TestParetoNoPlan(t *testing.T) {
	p := newPlanner(t, textLib(t), costEstimator{})
	if _, err := p.ParetoPlans(textWorkflow(t, 10)); err == nil {
		t.Fatal("expected ErrNoPlan")
	}
}

// Property: on random chains, every front is mutually non-dominated and its
// fastest member matches the MinTime DP optimum.
func TestQuickParetoConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		est := costEstimator{
			"TF_IDF_mahout": {float64(r.Intn(50) + 1), float64(r.Intn(50) + 1)},
			"TF_IDF_weka":   {float64(r.Intn(50) + 1), float64(r.Intn(50) + 1)},
			"kmeans_mahout": {float64(r.Intn(50) + 1), float64(r.Intn(50) + 1)},
			"kmeans_weka":   {float64(r.Intn(50) + 1), float64(r.Intn(50) + 1)},
		}
		p, err := New(Config{Library: textLibQuick(), Estimator: est})
		if err != nil {
			return false
		}
		g := textWorkflowQuick()
		plans, err := p.ParetoPlans(g)
		if err != nil {
			return false
		}
		for i := range plans {
			for j := range plans {
				if i == j {
					continue
				}
				if plans[i].EstTimeSec <= plans[j].EstTimeSec && plans[i].EstCost <= plans[j].EstCost &&
					(plans[i].EstTimeSec < plans[j].EstTimeSec || plans[i].EstCost < plans[j].EstCost) {
					return false // j dominated but kept
				}
			}
		}
		ref, err := p.Plan(g)
		if err != nil {
			return false
		}
		return plans[0].EstTimeSec <= ref.EstTimeSec+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// textLibQuick mirrors textLib without *testing.T (for quick.Check bodies).
func textLibQuick() *operator.Library {
	lib := operator.NewLibrary()
	descs := map[string]string{
		"TF_IDF_mahout": "Constraints.Engine=Hadoop\nConstraints.OpSpecification.Algorithm.name=TF_IDF\nConstraints.Input0.Engine.FS=HDFS\nConstraints.Output0.Engine.FS=HDFS",
		"TF_IDF_weka":   "Constraints.Engine=Java\nConstraints.OpSpecification.Algorithm.name=TF_IDF\nConstraints.Input0.Engine.FS=LFS\nConstraints.Output0.Engine.FS=LFS",
		"kmeans_mahout": "Constraints.Engine=Hadoop\nConstraints.OpSpecification.Algorithm.name=kmeans\nConstraints.Input0.Engine.FS=HDFS\nConstraints.Output0.Engine.FS=HDFS",
		"kmeans_weka":   "Constraints.Engine=Java\nConstraints.OpSpecification.Algorithm.name=kmeans\nConstraints.Input0.Engine.FS=LFS\nConstraints.Output0.Engine.FS=LFS",
	}
	for name, d := range descs {
		if _, err := lib.AddOperatorDescription(name, d); err != nil {
			panic(err)
		}
	}
	return lib
}

// textWorkflowQuick mirrors textWorkflow without *testing.T.
func textWorkflowQuick() *workflow.Graph {
	g := workflow.NewGraph()
	ds := operator.NewDataset("crawlDocuments", metadata.MustParse(
		"Constraints.Engine.FS=HDFS\nExecution.path=hdfs:///crawl\nOptimization.documents=10000\nOptimization.size=50000000"))
	mustOK(g.AddDataset("crawlDocuments", ds))
	mustOK(g.AddOperator("TF_IDF", operator.NewAbstract("TF_IDF",
		metadata.MustParse("Constraints.OpSpecification.Algorithm.name=TF_IDF"))))
	mustOK(g.AddOperator("kmeans", operator.NewAbstract("kmeans",
		metadata.MustParse("Constraints.OpSpecification.Algorithm.name=kmeans"))))
	mustOK(g.AddDataset("d1", nil))
	mustOK(g.AddDataset("d2", nil))
	for _, e := range [][2]string{{"crawlDocuments", "TF_IDF"}, {"TF_IDF", "d1"}, {"d1", "kmeans"}, {"kmeans", "d2"}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	if err := g.SetTarget("d2"); err != nil {
		panic(err)
	}
	return g
}

func mustOK[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// paretoCandidatesReference is the Pareto candidate enumeration the option
// filter and the one-slice partials replaced, kept as their oracle: every
// slot forms the whole (partial, option) product and prunes it pairwise.
func paretoCandidatesReference(p *Planner, o *workflow.Node, mo *operator.Materialized, dp table) []*candidate {
	type partial struct {
		prev           *partial
		choice         inputChoice
		v              pVec
		records, bytes int64
	}
	partials := []partial{{}}
	for i, in := range o.Inputs {
		var options []inputChoice
		var optionVec []pVec
		for _, tin := range dp[in.Pos()] {
			choice, v := inputChoice{entry: tin}, pVec{tin.time, tin.money}
			if !mo.AcceptsInput(i, tin.meta) {
				choice.moved = true
				choice.moveTime = p.cfg.MoveSeconds(tin.bytes)
				choice.moveCost = choice.moveTime
				v = pVec{tin.time + choice.moveTime, tin.money + choice.moveCost}
			}
			options, optionVec = append(options, choice), append(optionVec, v)
		}
		if len(options) == 0 {
			return nil
		}
		var next []pVec
		for _, pt := range partials {
			for _, ov := range optionVec {
				next = append(next, pVec{pt.v.time + ov.time, pt.v.money + ov.money})
			}
		}
		keep := pruneQuadratic(next)
		extended := make([]partial, len(keep))
		for k, idx := range keep {
			pt, opt := &partials[idx/len(options)], options[idx%len(options)]
			extended[k] = partial{
				prev: pt, choice: opt, v: next[idx],
				records: pt.records + opt.entry.records,
				bytes:   pt.bytes + opt.entry.bytes,
			}
		}
		partials = extended
	}
	var out []*candidate
	for i := range partials {
		inputs := make([]inputChoice, len(o.Inputs))
		for pt, k := &partials[i], len(inputs)-1; k >= 0; pt, k = pt.prev, k-1 {
			inputs[k] = pt.choice
		}
		if cand := p.estimate(mo, inputs, partials[i].records, partials[i].bytes); cand != nil {
			out = append(out, cand)
		}
	}
	return out
}

// insertFrontReference is the merge the O(front) insert replaced, kept as
// its oracle: the tag's front with e appended, pruned pairwise.
func insertFrontReference(row []*tagEntry, e *tagEntry) ([]*tagEntry, int) {
	lo := 0
	for lo < len(row) && row[lo].metaKey < e.metaKey {
		lo++
	}
	hi := lo
	for hi < len(row) && row[hi].metaKey == e.metaKey {
		hi++
	}
	entries := append(row[lo:hi:hi], e)
	vs := make([]pVec, len(entries))
	for i, x := range entries {
		vs[i] = pVec{x.time, x.money}
	}
	keep := pruneQuadratic(vs)
	front := make([]*tagEntry, len(keep))
	for i, k := range keep {
		front[i] = entries[k]
	}
	return slices.Replace(row, lo, hi, front...), len(entries) - len(keep)
}

// collidingDraw returns a value source over few distinct values, so draws
// share times and costs and repeat whole vectors; one draw in special is ±Inf,
// NaN or −0 (special 0 draws none).
func collidingDraw(rng *rand.Rand, grid, special int) func() float64 {
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	return func() float64 {
		if special > 0 && rng.Intn(special) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return float64(rng.Intn(grid))
	}
}

// feasibleEstimator prices every configuration except inputs whose record
// count is 3 mod 7, and reports no output size, so a candidate's outRecords
// and outBytes are the records and bytes its inputs summed to.
type feasibleEstimator struct{}

func (feasibleEstimator) Estimates(opName string, feats map[string]float64) Estimates {
	if int64(feats["records"])%7 == 3 {
		return Estimates{}
	}
	return Estimates{ExecTime: 1, Cost: 1, ExecTimeOK: true, CostOK: true}
}

// TestParetoCandidatesMatchReference drives the filtered, one-slice
// enumeration and the whole-product reference over seeded random input rows:
// moved and unmoved options, duplicated entries, shared times and costs, −0,
// and in some rounds ±Inf and NaN, which turn the option filter off. Every
// candidate must match in its input entries, moves, records and bytes.
func TestParetoCandidatesMatchReference(t *testing.T) {
	hdfs := metadata.MustParse("Engine.FS=HDFS")
	lfs := metadata.MustParse("Engine.FS=LFS")
	rng := rand.New(rand.NewSource(46))
	filtered, nonFinite := 0, 0
	for round := 0; round < 600; round++ {
		slots := 1 + rng.Intn(4)
		desc := "Constraints.Engine=Spark\nConstraints.OpSpecification.Algorithm.name=join\n"
		g := workflow.NewGraph()
		for i := 0; i < slots; i++ {
			desc += "Constraints.Input" + itoa(int64(i)) + ".Engine.FS=HDFS\n"
			mustOK(g.AddDataset("in"+itoa(int64(i)), nil))
		}
		mo, err := operator.NewMaterialized("join_spark", metadata.MustParse(desc))
		if err != nil {
			t.Fatal(err)
		}
		mustOK(g.AddOperator("join", operator.NewAbstract("join", metadata.MustParse(
			"Constraints.OpSpecification.Algorithm.name=join"))))
		for i := 0; i < slots; i++ {
			if err := g.Connect("in"+itoa(int64(i)), "join"); err != nil {
				t.Fatal(err)
			}
		}
		o, _ := g.Node("join")

		special := 0
		if round%3 == 0 {
			special = 10
		}
		draw := collidingDraw(rng, 1+rng.Intn(12), special)
		dp := make(table, g.Len())
		finite := true
		for _, in := range o.Inputs {
			n := 1 + rng.Intn(40)
			row := make([]*tagEntry, n)
			for k := range row {
				if k > 0 && rng.Intn(5) == 0 {
					row[k] = row[rng.Intn(k)] // the same entry twice
					continue
				}
				e := &tagEntry{
					meta: hdfs, metaKey: "HDFS", time: draw(), money: draw(),
					records: int64(rng.Intn(20)), bytes: int64(rng.Intn(4)),
				}
				if rng.Intn(2) == 0 {
					e.meta, e.metaKey = lfs, "LFS"
				}
				finite = finite && !math.IsInf(e.time, 0) && !math.IsInf(e.money, 0) && !isNaN(e.time, e.money)
				row[k] = e
			}
			dp[in.Pos()] = row
		}
		if finite {
			filtered++
		} else {
			nonFinite++
		}

		p, err := New(Config{
			Library: operator.NewLibrary(), Estimator: feasibleEstimator{},
			MoveSeconds: func(bytes int64) float64 { return float64(bytes) }, // a move can tie an unmoved option
		})
		if err != nil {
			t.Fatal(err)
		}
		want := paretoCandidatesReference(p, o, mo, dp)
		got := p.paretoCandidates(o, mo, dp)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d candidates, reference %d", round, len(got), len(want))
		}
		for c := range want {
			g, w := got[c], want[c]
			if g.outRecords != w.outRecords || g.outBytes != w.outBytes || len(g.inputs) != len(w.inputs) {
				t.Fatalf("round %d candidate %d: records/bytes %d/%d, reference %d/%d",
					round, c, g.outRecords, g.outBytes, w.outRecords, w.outBytes)
			}
			for k := range w.inputs {
				gi, wi := g.inputs[k], w.inputs[k]
				if gi.entry != wi.entry || gi.moved != wi.moved ||
					math.Float64bits(gi.moveTime) != math.Float64bits(wi.moveTime) ||
					math.Float64bits(gi.moveCost) != math.Float64bits(wi.moveCost) {
					t.Fatalf("round %d candidate %d input %d: %+v, reference %+v", round, c, k, gi, wi)
				}
			}
		}
	}
	if filtered < 100 || nonFinite < 50 {
		t.Fatalf("coverage: %d all-finite rounds, %d with a non-finite entry", filtered, nonFinite)
	}
}

// TestInsertFrontMatchesPruneFront replays seeded random insert sequences
// into one Pareto row through insertFront and through the pairwise
// reference: the rows must hold the same entries in the same order after
// every insert, and each insert must report the same dropped count. Anti-
// chain rounds fill fronts to MaxFrontPerTag so inserts reach the thinning.
func TestInsertFrontMatchesPruneFront(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	keys := []string{"A", "B", "C"}
	thinned := 0
	p := new(Planner)
	for round := 0; round < 400; round++ {
		special := 0
		if round%4 == 0 {
			special = 25
		}
		draw := collidingDraw(rng, 2+rng.Intn(30), special)
		antichain := round%3 == 1
		var row, ref []*tagEntry
		for n := 0; n < 120; n++ {
			e := &tagEntry{metaKey: keys[rng.Intn(len(keys))], time: draw(), money: draw()}
			if antichain {
				e.time = float64(rng.Intn(200))
				e.money = 200 - e.time
			}
			before := 0
			for _, x := range ref {
				if x.metaKey == e.metaKey {
					before++
				}
			}
			var dropped, wantDropped int
			row, dropped = p.insertFront(row, e)
			ref, wantDropped = insertFrontReference(ref, e)
			if dropped != wantDropped || !slices.Equal(row, ref) {
				t.Fatalf("round %d insert %d (%v %v %v): dropped %d, reference %d\nrow %v\nref %v",
					round, n, e.metaKey, e.time, e.money, dropped, wantDropped, row, ref)
			}
			if before == MaxFrontPerTag && wantDropped == 1 && slices.Contains(ref, e) {
				thinned++
			}
		}
	}
	if thinned < 100 {
		t.Fatalf("only %d inserts reached the thinning", thinned)
	}
}

// TestParetoPlansOnePlanningTime checks that every plan of one front reports
// the same planning time: the whole call's.
func TestParetoPlansOnePlanningTime(t *testing.T) {
	est := costEstimator{
		"TF_IDF_mahout": {10, 100},
		"TF_IDF_weka":   {50, 10},
		"kmeans_mahout": {10, 100},
		"kmeans_weka":   {50, 10},
	}
	plans, err := newPlanner(t, textLib(t), est).ParetoPlans(textWorkflow(t, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 2 {
		t.Fatalf("expected a front with alternatives, got %d plan(s)", len(plans))
	}
	for _, plan := range plans {
		if plan.PlanningTime != plans[0].PlanningTime || plan.PlanningTime <= 0 {
			t.Fatalf("planning times differ within one front: %v and %v", plans[0].PlanningTime, plan.PlanningTime)
		}
	}
}

// TestFrontOrderMatchesSortSlice sorts random fronts, NaN members included,
// with frontOrder and with the sort.Slice less it replaced: the orders must
// be the same.
func TestFrontOrderMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for round := 0; round < 2000; round++ {
		draw := collidingDraw(rng, 1+rng.Intn(20), 6)
		front := make([]*tagEntry, rng.Intn(60))
		for i := range front {
			front[i] = &tagEntry{time: draw(), money: draw()}
		}
		want := slices.Clone(front)
		sort.Slice(want, func(i, j int) bool {
			if want[i].time != want[j].time {
				return want[i].time < want[j].time
			}
			return want[i].money < want[j].money
		})
		slices.SortFunc(front, frontOrder)
		if !slices.Equal(front, want) {
			t.Fatalf("round %d: orders differ", round)
		}
	}
}
