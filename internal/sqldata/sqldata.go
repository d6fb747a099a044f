// Package sqldata generates a TPC-H-like relational dataset at a
// configurable scale factor — the substitute for the dbgen-produced data the
// paper's relational workflow and the MuSQLE evaluation use. For a compact,
// type-safe mini-database, every column is int64: keys are surrogate
// integers, prices are cents, names/regions are dictionary codes and dates
// are day numbers. Joins and filters — all the evaluation exercises — are
// unaffected by this encoding.
package sqldata

import (
	"fmt"
	"math/rand"
)

// Table is an in-memory relation with int64-typed columns.
type Table struct {
	Name string
	Cols []string
	Rows [][]int64
}

// ColIndex returns the position of a column, or -1.
func (t *Table) ColIndex(col string) int {
	for i, c := range t.Cols {
		if c == col {
			return i
		}
	}
	return -1
}

// NumRows reports the table's cardinality.
func (t *Table) NumRows() int { return len(t.Rows) }

// Bytes approximates the table's in-memory size.
func (t *Table) Bytes() int64 { return int64(len(t.Rows)) * int64(len(t.Cols)) * 8 }

// DistinctCount returns the number of distinct values in a column (0 for an
// unknown column).
func (t *Table) DistinctCount(col string) int {
	idx := t.ColIndex(col)
	if idx < 0 {
		return 0
	}
	seen := make(map[int64]struct{}, len(t.Rows))
	for _, r := range t.Rows {
		seen[r[idx]] = struct{}{}
	}
	return len(seen)
}

// Baseline TPC-H cardinalities at scale factor 1.
const (
	regionSF1   = 5
	nationSF1   = 25
	supplierSF1 = 10_000
	customerSF1 = 150_000
	partSF1     = 200_000
	partsuppSF1 = 800_000
	ordersSF1   = 1_500_000
	lineitemSF1 = 6_000_000
)

// TableNames lists the generated tables in dependency order.
func TableNames() []string {
	return []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}
}

// Generate produces the eight TPC-H-like tables at the given scale factor
// (sf=1 matches TPC-H row counts; tests use much smaller factors).
func Generate(sf float64, seed int64) map[string]*Table {
	if sf <= 0 {
		sf = 0.001
	}
	rng := rand.New(rand.NewSource(seed))
	scale := func(base int) int {
		n := int(float64(base) * sf)
		if n < 2 {
			n = 2
		}
		return n
	}
	nRegion := regionSF1 // fixed-size dimension tables
	nNation := nationSF1
	nSupplier := scale(supplierSF1)
	nCustomer := scale(customerSF1)
	nPart := scale(partSF1)
	nPartsupp := scale(partsuppSF1)
	nOrders := scale(ordersSF1)
	nLineitem := scale(lineitemSF1)

	tables := make(map[string]*Table, 8)

	region := &Table{Name: "region", Cols: []string{"r_regionkey", "r_name"}}
	for i := 0; i < nRegion; i++ {
		region.Rows = append(region.Rows, []int64{int64(i), int64(i)})
	}
	tables["region"] = region

	nation := &Table{Name: "nation", Cols: []string{"n_nationkey", "n_regionkey", "n_name"}}
	for i := 0; i < nNation; i++ {
		nation.Rows = append(nation.Rows, []int64{int64(i), int64(i % nRegion), int64(i)})
	}
	tables["nation"] = nation

	supplier := &Table{Name: "supplier", Cols: []string{"s_suppkey", "s_nationkey", "s_acctbal"}}
	for i := 0; i < nSupplier; i++ {
		supplier.Rows = append(supplier.Rows, []int64{
			int64(i), int64(rng.Intn(nNation)), int64(rng.Intn(1_000_000)),
		})
	}
	tables["supplier"] = supplier

	customer := &Table{Name: "customer", Cols: []string{"c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment"}}
	for i := 0; i < nCustomer; i++ {
		customer.Rows = append(customer.Rows, []int64{
			int64(i), int64(rng.Intn(nNation)), int64(rng.Intn(1_000_000)), int64(rng.Intn(5)),
		})
	}
	tables["customer"] = customer

	part := &Table{Name: "part", Cols: []string{"p_partkey", "p_retailprice", "p_size", "p_brand"}}
	for i := 0; i < nPart; i++ {
		part.Rows = append(part.Rows, []int64{
			int64(i), int64(90_000 + rng.Intn(120_000)), int64(1 + rng.Intn(50)), int64(rng.Intn(25)),
		})
	}
	tables["part"] = part

	partsupp := &Table{Name: "partsupp", Cols: []string{"ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"}}
	for i := 0; i < nPartsupp; i++ {
		partsupp.Rows = append(partsupp.Rows, []int64{
			int64(rng.Intn(nPart)), int64(rng.Intn(nSupplier)), int64(rng.Intn(10_000)), int64(rng.Intn(100_000)),
		})
	}
	tables["partsupp"] = partsupp

	orders := &Table{Name: "orders", Cols: []string{"o_orderkey", "o_custkey", "o_totalprice", "o_orderdate", "o_orderstatus"}}
	for i := 0; i < nOrders; i++ {
		orders.Rows = append(orders.Rows, []int64{
			int64(i), int64(rng.Intn(nCustomer)), int64(rng.Intn(50_000_000)), int64(rng.Intn(2557)), int64(rng.Intn(3)),
		})
	}
	tables["orders"] = orders

	lineitem := &Table{Name: "lineitem", Cols: []string{"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_shipdate"}}
	for i := 0; i < nLineitem; i++ {
		lineitem.Rows = append(lineitem.Rows, []int64{
			int64(rng.Intn(nOrders)), int64(rng.Intn(nPart)), int64(rng.Intn(nSupplier)),
			int64(1 + rng.Intn(50)), int64(rng.Intn(10_000_000)), int64(rng.Intn(2557)),
		})
	}
	tables["lineitem"] = lineitem

	return tables
}

// ForeignKey declares one FK relationship of the schema.
type ForeignKey struct {
	Table, Col, RefTable, RefCol string
}

// ForeignKeys returns the schema's join edges (the TPC-H join graph).
func ForeignKeys() []ForeignKey {
	return []ForeignKey{
		{"nation", "n_regionkey", "region", "r_regionkey"},
		{"supplier", "s_nationkey", "nation", "n_nationkey"},
		{"customer", "c_nationkey", "nation", "n_nationkey"},
		{"partsupp", "ps_partkey", "part", "p_partkey"},
		{"partsupp", "ps_suppkey", "supplier", "s_suppkey"},
		{"orders", "o_custkey", "customer", "c_custkey"},
		{"lineitem", "l_orderkey", "orders", "o_orderkey"},
		{"lineitem", "l_partkey", "part", "p_partkey"},
		{"lineitem", "l_suppkey", "supplier", "s_suppkey"},
	}
}

// Describe renders table cardinalities for logging.
func Describe(tables map[string]*Table) string {
	out := ""
	for _, n := range TableNames() {
		if t, ok := tables[n]; ok {
			out += fmt.Sprintf("%s: %d rows\n", n, t.NumRows())
		}
	}
	return out
}
