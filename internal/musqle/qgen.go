package musqle

import (
	"fmt"
	"math/rand"

	"github.com/asap-project/ires/internal/sqldata"
)

// GenerateQuery builds a random connected SPJ query over nTables tables of
// the TPC-H join graph, with optional filters — the query workload of the
// MuSQLE evaluation (18 join-only and join-filter queries over 2-7 tables).
func GenerateQuery(cat *Catalog, nTables int, withFilters bool, seed int64) (*Query, error) {
	fks := sqldata.ForeignKeys()
	adj := make(map[string][]sqldata.ForeignKey)
	for _, fk := range fks {
		adj[fk.Table] = append(adj[fk.Table], fk)
		adj[fk.RefTable] = append(adj[fk.RefTable], fk)
	}
	if nTables < 1 {
		return nil, fmt.Errorf("musqle: nTables must be >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	starts := sqldata.TableNames()
	q := &Query{}
	in := make(map[string]bool)
	add := func(t string) {
		if !in[t] {
			in[t] = true
			q.Tables = append(q.Tables, t)
		}
	}
	add(starts[rng.Intn(len(starts))])
	for len(q.Tables) < nTables {
		// Pick a random FK edge touching the current set and extending it.
		var candidates []sqldata.ForeignKey
		for _, t := range q.Tables { // insertion order: the same seed gives the same query

			for _, fk := range adj[t] {
				other := fk.Table
				if other == t {
					other = fk.RefTable
				}
				if !in[other] {
					candidates = append(candidates, fk)
				}
			}
		}
		if len(candidates) == 0 {
			return nil, fmt.Errorf("musqle: cannot grow query to %d tables from %v", nTables, q.Tables)
		}
		fk := candidates[rng.Intn(len(candidates))]
		add(fk.Table)
		add(fk.RefTable)
		q.Joins = append(q.Joins, JoinPred{
			LeftTable: fk.Table, LeftCol: fk.Col,
			RightTable: fk.RefTable, RightCol: fk.RefCol,
		})
	}
	if withFilters {
		nf := 1 + rng.Intn(2)
		filterable := map[string][2]interface{}{
			"part":     {"p_retailprice", int64(150_000)},
			"customer": {"c_acctbal", int64(500_000)},
			"orders":   {"o_totalprice", int64(25_000_000)},
			"lineitem": {"l_quantity", int64(25)},
			"supplier": {"s_acctbal", int64(500_000)},
			"nation":   {"n_name", int64(7)},
		}
		for _, t := range q.Tables {
			if nf == 0 {
				break
			}
			if spec, ok := filterable[t]; ok {
				op := OpGt
				if spec[0].(string) == "n_name" {
					op = OpEq
				}
				q.Filters = append(q.Filters, Filter{
					Table: t, Col: spec[0].(string), Op: op, Value: spec[1].(int64),
				})
				nf--
			}
		}
	}
	return q, nil
}

// QuerySet18 generates the evaluation's 18-query workload: queries Q0-Q8
// are join-only, Q9-Q17 add filters, spanning 2-7 tables.
func QuerySet18(cat *Catalog) ([]*Query, error) {
	var out []*Query
	for i := 0; i < 18; i++ {
		n := 2 + i%6
		q, err := GenerateQuery(cat, n, i >= 9, int64(1000+i))
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}
