package planner

import (
	"math"
	"slices"
	"testing"

	"github.com/asap-project/ires/internal/pegasus"
	"github.com/asap-project/ires/internal/workflow"
)

// tableRows builds g's table on p as Plan (done nil), Replan (done non-nil)
// or ParetoPlans does, and returns a copy of its rows and the build's
// statistics.
func tableRows(t *testing.T, p *Planner, g *workflow.Graph, done []MaterializedIntermediate, pareto bool) ([][]*tagEntry, dpStats) {
	t.Helper()
	order, err := g.ValidatedOrder()
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ensureCacheValidLocked()
	var seed map[string]*tagEntry
	if done != nil {
		if seed, err = p.seedForLocked(g, done); err != nil {
			t.Fatal(err)
		}
	}
	leaves, err := p.leavesLocked(order, seed, nil, pareto)
	if err != nil {
		t.Fatal(err)
	}
	dp, stats := p.buildTable(order, leaves, pareto)
	defer clear(dp)
	p.recordBuildLocked(stats)
	rows := make([][]*tagEntry, len(dp))
	for i, row := range dp {
		rows[i] = slices.Clone(row)
	}
	return rows, *stats
}

// fullFront reports whether a row holds a tag front of MaxFrontPerTag
// entries.
func fullFront(rows [][]*tagEntry) bool {
	for _, row := range rows {
		for i := MaxFrontPerTag - 1; i < len(row); i++ {
			if row[i].metaKey == row[i-MaxFrontPerTag+1].metaKey {
				return true
			}
		}
	}
	return false
}

// TestCachedRowsMatchColdTable plans each Pegasus category at two sizes on
// one planner — cold, warm, with an engine down, with it back up, and as a
// Replan from a done-set twice, each as Plan and as ParetoPlans tables where
// the call has one — and after every build compares the whole table with a
// fresh cold planner's, row by row and entry by entry (sig and the bits of
// cost, time and money), and the build's statistics but for its hit and miss
// counts. Rows a hit installs from the memo must be the rows a cold
// evaluation merges.
func TestCachedRowsMatchColdTable(t *testing.T) {
	for _, cat := range pegasus.Categories() {
		for _, size := range []int{8, 24} {
			graph := func() *workflow.Graph {
				g, err := pegasus.Generate(cat, size)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			down := ""
			cfg := func(c *Config) {
				c.Estimator = tradeoffEstimator{}
				c.EngineAvailable = func(name string) bool { return name != down }
			}
			p := pegasusPlanner(t, graph(), cfg)
			fronts := false
			check := func(way string, done []MaterializedIntermediate, pareto bool) (hits, misses int) {
				t.Helper()
				g := graph()
				got, gs := tableRows(t, p, g, done, pareto)
				want, ws := tableRows(t, pegasusPlanner(t, g, cfg), g, done, pareto)
				fronts = fronts || pareto && fullFront(got)
				hits, misses = gs.cacheHits, gs.cacheMisses
				gs.cacheHits, gs.cacheMisses, ws.cacheHits, ws.cacheMisses = 0, 0, 0, 0
				if gs != ws {
					t.Fatalf("%s/%d %s (pareto %v): stats %+v, cold %+v", cat, size, way, pareto, gs, ws)
				}
				for i := range want {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("%s/%d %s (pareto %v): row %d holds %d entries, cold %d", cat, size, way, pareto, i, len(got[i]), len(want[i]))
					}
					for k, w := range want[i] {
						e := got[i][k]
						if e.sig != w.sig || math.Float64bits(e.cost) != math.Float64bits(w.cost) ||
							math.Float64bits(e.time) != math.Float64bits(w.time) || math.Float64bits(e.money) != math.Float64bits(w.money) {
							t.Fatalf("%s/%d %s (pareto %v): row %d entry %d: %+v, cold %+v", cat, size, way, pareto, i, k, *e, *w)
						}
					}
				}
				return hits, misses
			}
			for _, pareto := range []bool{false, true} {
				check("cold", nil, pareto)
				if hits, misses := check("warm", nil, pareto); misses != 0 || hits == 0 {
					t.Fatalf("%s/%d warm (pareto %v): %d misses, %d hits; want all hits", cat, size, pareto, misses, hits)
				}
			}
			plan, err := p.Plan(graph())
			if err != nil {
				t.Fatal(err)
			}
			ops := plan.OperatorSteps()
			down = ops[0].Engine
			for _, pareto := range []bool{false, true} {
				check("down "+down, nil, pareto)
			}
			down = ""
			for _, pareto := range []bool{false, true} {
				check("up", nil, pareto)
			}
			var done []MaterializedIntermediate
			for _, s := range ops[:len(ops)/3] {
				done = append(done, MaterializedIntermediate{Dataset: s.OutDataset, Meta: s.OutMeta, Records: s.OutRecords, Bytes: s.OutBytes})
			}
			check("replan", done, false)
			if _, misses := check("replan again", done, false); misses != 0 {
				t.Fatalf("%s/%d replan again: %d misses; want all hits", cat, size, misses)
			}
			if !fronts {
				t.Fatalf("%s/%d: no Pareto row holds a full front", cat, size)
			}
		}
	}
}

// TestCachedRowsNeverWritten snapshots the rows of every cached node result
// after Plan, ParetoPlans and Replan builds of one graph, then builds other
// graphs that share its node shapes — fresh copies, other sizes of its
// category, replans seeded on datasets that no build seeded before and
// whose producers' results are cached, each seed in a tag its producer
// makes, and Pareto builds whose fronts fill — and checks that every
// snapshot row still holds the same entries.
// An installed row is shared by every build that hits its result, so one
// write into it would change the plans of all of them.
func TestCachedRowsNeverWritten(t *testing.T) {
	for _, cat := range pegasus.Categories() {
		graph := func(size int) *workflow.Graph {
			g, err := pegasus.Generate(cat, size)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		p := pegasusPlanner(t, graph(24), func(c *Config) { c.Estimator = tradeoffEstimator{} })
		rows, _ := tableRows(t, p, graph(16), nil, false)
		tableRows(t, p, graph(16), nil, true)
		// Seeds on intermediate datasets whose producers have distinct
		// results, each in the tag and sizes of its row's first entry, at zero
		// cost: each replaces that entry.
		g := graph(16)
		var done []MaterializedIntermediate
		seen := map[sig]bool{}
		for _, d := range g.Datasets() {
			if row := rows[d.Pos()]; len(d.Inputs) > 0 && len(row) > 0 && !seen[row[0].sig] && len(done) < 3 {
				seen[row[0].sig] = true
				done = append(done, MaterializedIntermediate{Dataset: d.Name, Meta: row[0].meta, Records: row[0].records, Bytes: row[0].bytes})
			}
		}
		if len(done) < 2 {
			t.Fatalf("%s: %d intermediate datasets to seed, want 2", cat, len(done))
		}
		last := len(done) - 1
		tableRows(t, p, g, done[last:], false)

		snapshot := make(map[*nodeResult][][]*tagEntry, len(p.cache.nodes))
		for _, res := range p.cache.nodes {
			rows := make([][]*tagEntry, len(res.rows))
			for i, row := range res.rows {
				rows[i] = slices.Clone(row)
			}
			snapshot[res] = rows
		}

		fronts := false
		for _, size := range []int{16, 8, 24} {
			tableRows(t, p, graph(size), nil, false)
			if _, err := p.Plan(graph(size)); err != nil {
				t.Fatal(err)
			}
			rows, _ := tableRows(t, p, graph(size), nil, true)
			fronts = fronts || fullFront(rows)
			if _, err := p.ParetoPlans(graph(size)); err != nil {
				t.Fatal(err)
			}
		}
		for i := range done[:last] {
			tableRows(t, p, graph(16), done[:i+1], false)
			if _, err := p.Replan(graph(16), done[i:]); err != nil {
				t.Fatal(err)
			}
		}
		if !fronts {
			t.Fatalf("%s: no Pareto row holds a full front", cat)
		}
		if cs := p.CacheStats(); cs.Hits == 0 {
			t.Fatalf("%s: the builds shared no node result", cat)
		}

		for res, want := range snapshot {
			for i, row := range want {
				if !slices.Equal(res.rows[i], row) {
					t.Fatalf("%s: a cached row was written: %d entries, snapshot %d", cat, len(res.rows[i]), len(row))
				}
			}
		}
	}
}
