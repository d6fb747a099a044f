package musqle

import (
	"cmp"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/asap-project/ires/internal/sqldata"
)

func tpchCatalog(t *testing.T, sf float64) *Catalog {
	t.Helper()
	cat := NewCatalog()
	if err := cat.LoadTPCH(sqldata.Generate(sf, 11)); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestParseExampleQuery(t *testing.T) {
	cat := tpchCatalog(t, 0.002)
	q, err := Parse(`SELECT c_custkey, o_orderdate FROM part, partsupp, lineitem, orders, customer, nation
		WHERE p_partkey = ps_partkey AND c_nationkey = n_nationkey AND l_partkey = p_partkey
		AND o_custkey = c_custkey AND o_orderkey = l_orderkey AND p_retailprice > 209000 AND n_name = 7`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 6 || len(q.Joins) != 5 || len(q.Filters) != 2 {
		t.Fatalf("parsed %d tables %d joins %d filters", len(q.Tables), len(q.Joins), len(q.Filters))
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.SQL(), "SELECT c_custkey, o_orderdate") {
		t.Fatalf("SQL() = %s", q.SQL())
	}
}

// parseErrorCases are queries Parse must reject; FuzzParse seeds its corpus
// with them too.
var parseErrorCases = []string{
	"UPDATE customer SET x=1",
	"SELECT c_custkey",
	"SELECT c_custkey FROM nosuchtable",
	"SELECT nosuchcol FROM customer",
	"SELECT c_custkey FROM customer WHERE c_acctbal ~ 5",
	"SELECT c_custkey FROM customer WHERE o_custkey = c_custkey", // orders not in FROM
	"SELECT c_custkey FROM customer, nation WHERE c_nationkey > n_nationkey",
}

func TestParseErrors(t *testing.T) {
	cat := tpchCatalog(t, 0.002)
	for _, sql := range parseErrorCases {
		if _, err := Parse(sql, cat); err == nil {
			t.Errorf("accepted %q", sql)
		}
	}
	// Disconnected join graph rejected at validation.
	q, err := Parse("SELECT c_custkey FROM customer, part", cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err == nil {
		t.Error("cross product accepted")
	}
}

func TestOptimizeResidentEngines(t *testing.T) {
	cat := tpchCatalog(t, 0.002)
	// Plan against realistic TPC-H scale (5GB): at that size, shipping the
	// fact tables anywhere else is prohibitive — the Fig 13 behaviour.
	if err := cat.ScaleStatsTo(5); err != nil {
		t.Fatal(err)
	}
	reg := DefaultRegistry()
	opt := NewOptimizer(cat, reg)

	// The three SPJ queries of the relational analytics workflow (D3.3
	// Figure 10): q1 joins the small PostgreSQL-resident legacy tables, q2 the
	// medium MemSQL-resident tables, q3 the large HDFS-resident fact tables.
	var queries []*Query
	for _, sql := range []string{
		"SELECT c_custkey FROM customer, nation, region WHERE c_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = 2",
		"SELECT ps_partkey FROM part, partsupp WHERE p_partkey = ps_partkey AND p_retailprice > 150000",
		"SELECT o_orderkey FROM orders, lineitem WHERE o_orderkey = l_orderkey AND l_quantity > 25",
	} {
		q, err := Parse(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	// q1: all tables in PostgreSQL -> plan must stay there.
	plan, err := opt.Optimize(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.EnginesUsed) != 1 || plan.EnginesUsed[0] != EnginePostgres {
		t.Fatalf("q1 engines = %v\n%s", plan.EnginesUsed, plan.Describe())
	}
	// q2: both tables in MemSQL. The post-filter working set at 5GB is too
	// large for MemSQL's 2GB wall, so plan q2 at a smaller scale where it
	// fits and shipping still loses.
	if err := cat.ScaleStatsTo(0.5); err != nil {
		t.Fatal(err)
	}
	plan2, err := opt.Optimize(queries[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2.EnginesUsed) != 1 || plan2.EnginesUsed[0] != EngineMemSQL {
		t.Fatalf("q2 engines = %v", plan2.EnginesUsed)
	}
	// q3: large tables in Spark.
	if err := cat.ScaleStatsTo(5); err != nil {
		t.Fatal(err)
	}
	plan3, err := opt.Optimize(queries[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(plan3.EnginesUsed) != 1 || plan3.EnginesUsed[0] != EngineSpark {
		t.Fatalf("q3 engines = %v", plan3.EnginesUsed)
	}
}

func TestMultiEngineNeverWorseThanForced(t *testing.T) {
	cat := tpchCatalog(t, 0.002)
	reg := DefaultRegistry()
	opt := NewOptimizer(cat, reg)
	queries, err := QuerySet18(cat)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		multi, err := opt.Optimize(q)
		if err != nil {
			t.Fatalf("Q%d: %v", i, err)
		}
		for _, e := range reg.Names() {
			forced, err := opt.OptimizeOn(q, e)
			if err != nil {
				continue // single engine may be infeasible (MemSQL OOM)
			}
			if multi.EstSec > forced.EstSec+1e-9 {
				t.Errorf("Q%d: multi %.3fs worse than forced %s %.3fs", i, multi.EstSec, e, forced.EstSec)
			}
		}
	}
}

// The scale factor is chosen for the nested-loop oracle, whose cost is the
// product of the join inputs: at 0.0002 the ten queries return 2 to 96,070
// rows and the test takes seconds; at 0.0004 one query alone returns 5.5
// million and the test took over a minute and a half. Every reference result
// must stay non-empty, so that shrinking the input further cannot quietly
// turn the comparison into empty-equals-empty.
func TestExecuteMatchesReference(t *testing.T) {
	cat := tpchCatalog(t, 0.0002)
	reg := DefaultRegistry()
	opt := NewOptimizer(cat, reg)
	queries, err := QuerySet18(cat)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries[:10] {
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatalf("Q%d optimize: %v", i, err)
		}
		got, err := Execute(plan, q, cat, reg)
		if err != nil {
			t.Fatalf("Q%d execute: %v", i, err)
		}
		want, err := ReferenceExecute(q, cat)
		if err != nil {
			t.Fatalf("Q%d reference: %v", i, err)
		}
		if want.NumRows() == 0 {
			t.Fatalf("Q%d (%s): reference result is empty — the input is too small to compare anything", i, q.SQL())
		}
		if !sameRows(got.Table, want) {
			t.Fatalf("Q%d (%s): result mismatch: %d vs %d rows", i, q.SQL(), got.Table.NumRows(), want.NumRows())
		}
		if got.SimSec <= 0 {
			t.Fatalf("Q%d: no simulated time", i)
		}
	}
}

// sameRows compares two tables as multisets of rows. Column order may differ
// across plans, so b's columns are read in a's order; b's other columns are
// ignored.
func sameRows(a, b *sqldata.Table) bool {
	if a.NumRows() != b.NumRows() {
		return false
	}
	colsA := make([]int, len(a.Cols))
	colsB := make([]int, len(a.Cols))
	for i, c := range a.Cols {
		colsA[i] = i
		if colsB[i] = b.ColIndex(c); colsB[i] < 0 {
			return false
		}
	}
	ordA, ordB := sortedRows(a.Rows, colsA), sortedRows(b.Rows, colsB)
	for k := range ordA {
		if compareRows(a.Rows[ordA[k]], colsA, b.Rows[ordB[k]], colsB) != 0 {
			return false
		}
	}
	return true
}

// sortedRows returns the indices of rows in lexicographic order of the
// columns cols.
func sortedRows(rows [][]int64, cols []int) []int {
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int { return compareRows(rows[x], cols, rows[y], cols) })
	return order
}

// compareRows orders row x's columns colsX against row y's columns colsY.
func compareRows(x []int64, colsX []int, y []int64, colsY []int) int {
	for i := range colsX {
		if c := cmp.Compare(x[colsX[i]], y[colsY[i]]); c != 0 {
			return c
		}
	}
	return 0
}

func TestMemSQLMemoryWallAvoided(t *testing.T) {
	cat := NewCatalog()
	tables := sqldata.Generate(0.01, 3)
	// Place the big tables ONLY in MemSQL and plan them at TPC-H scale 1
	// (1.5M orders, 6M lineitems, 6M joined rows), whose join working set
	// is past MemSQL's 2GB wall; the optimizer must route the join
	// elsewhere.
	if err := cat.AddTable(tables["orders"], EngineMemSQL); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(tables["lineitem"], EngineMemSQL); err != nil {
		t.Fatal(err)
	}
	if err := cat.SetStatsOverride("orders", 1_500_000, map[string]int{"o_orderkey": 1_500_000}); err != nil {
		t.Fatal(err)
	}
	if err := cat.SetStatsOverride("lineitem", 6_000_000, map[string]int{"l_orderkey": 1_500_000}); err != nil {
		t.Fatal(err)
	}
	reg := DefaultRegistry()
	opt := NewOptimizer(cat, reg)
	q, err := Parse("SELECT o_orderkey FROM orders, lineitem WHERE o_orderkey = l_orderkey", cat)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range plan.EnginesUsed {
		if n == EngineMemSQL {
			// MemSQL may appear for scans but the join must be elsewhere.
			if plan.Root.Kind == NodeJoin && plan.Root.Engine == EngineMemSQL {
				t.Fatalf("join placed on memory-limited MemSQL:\n%s", plan.Describe())
			}
		}
	}
	// Forced MemSQL must be infeasible.
	if _, err := opt.OptimizeOn(q, EngineMemSQL); err == nil {
		t.Fatal("OOM-bound forced plan accepted")
	}
	// Execution of the multi-engine plan still succeeds.
	if _, err := Execute(plan, q, cat, reg); err != nil {
		t.Fatal(err)
	}
}

func TestStatsInjectionAblation(t *testing.T) {
	cat := tpchCatalog(t, 0.005)
	reg := DefaultRegistry()
	withInj := NewOptimizer(cat, reg)
	without := NewOptimizer(cat, reg)
	without.StatsInjection = false

	q, err := Parse(`SELECT l_orderkey FROM lineitem, orders, customer, nation
		WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey AND c_nationkey = n_nationkey AND n_name = 3`, cat)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := withInj.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	pn, err := without.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := Execute(pi, q, cat, reg)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := Execute(pn, q, cat, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(ri.Table, rn.Table) {
		t.Fatal("ablation changed results")
	}
	// Injected statistics must not yield a slower actual execution.
	if ri.SimSec > rn.SimSec*1.05 {
		t.Errorf("stats injection hurt: %.3fs vs %.3fs", ri.SimSec, rn.SimSec)
	}
}

func TestCatalogErrors(t *testing.T) {
	cat := NewCatalog()
	if err := cat.AddTable(nil, EngineSpark); err == nil {
		t.Fatal("nil table accepted")
	}
	tables := sqldata.Generate(0.001, 1)
	if err := cat.AddTable(tables["part"]); err == nil {
		t.Fatal("location-less table accepted")
	}
	if err := cat.AddTable(tables["part"], EngineSpark); err != nil {
		t.Fatal(err)
	}
	// Column collision.
	dup := &sqldata.Table{Name: "partclone", Cols: []string{"p_partkey"}}
	if err := cat.AddTable(dup, EngineSpark); err == nil {
		t.Fatal("column collision accepted")
	}
	if cat.Rows("missing") != 0 || cat.Distinct("missing", "x") != 0 {
		t.Fatal("missing-table stats nonzero")
	}
	if got := cat.Tables(); len(got) != 1 || got[0] != "part" {
		t.Fatalf("Tables = %v", got)
	}
}

func TestSyntheticRegistry(t *testing.T) {
	reg := SyntheticRegistry(6)
	if len(reg.Names()) != 6 {
		t.Fatalf("names = %v", reg.Names())
	}
	e, ok := reg.Get("engine0")
	if !ok {
		t.Fatal("engine0 missing")
	}
	if s := e.ScanSec(1000, 8000); s <= 0 {
		t.Fatal("scan cost non-positive")
	}
}

// Property: optimizer plans execute to reference-identical results on
// random queries.
func TestQuickPlanCorrectness(t *testing.T) {
	cat := tpchCatalog(t, 0.0005)
	reg := DefaultRegistry()
	opt := NewOptimizer(cat, reg)
	f := func(seed int64) bool {
		n := 2 + int(uint64(seed)%4)
		q, err := GenerateQuery(cat, n, seed%2 == 0, seed)
		if err != nil {
			return false
		}
		plan, err := opt.Optimize(q)
		if err != nil {
			return false
		}
		got, err := Execute(plan, q, cat, reg)
		if err != nil {
			return false
		}
		want, err := ReferenceExecute(q, cat)
		if err != nil {
			return false
		}
		return sameRows(got.Table, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeErrors(t *testing.T) {
	cat := tpchCatalog(t, 0.001)
	reg := DefaultRegistry()
	opt := NewOptimizer(cat, reg)
	if _, err := opt.OptimizeOn(&Query{Tables: []string{"part"}}, "NoSuchEngine"); err == nil {
		t.Fatal("unknown engine accepted")
	}
	big := &Query{}
	for i := 0; i < MaxTables+1; i++ {
		big.Tables = append(big.Tables, "t")
	}
	if _, err := opt.Optimize(big); err == nil {
		t.Fatal("oversized query accepted")
	}
}
