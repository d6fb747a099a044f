package musqle

import (
	"fmt"
	"math/bits"

	"github.com/asap-project/ires/internal/sqldata"
)

// ExecResult is the outcome of executing a multi-engine plan: the actual
// result rows plus the simulated execution time, computed from the
// engines' cost models over the *actual* intermediate cardinalities.
type ExecResult struct {
	Table *sqldata.Table
	// SimSec is the simulated execution duration (including per-engine
	// startup).
	SimSec float64
	// MoveRows counts rows shipped between engines.
	MoveRows int64
}

// Execute runs the plan bottom-up: scans apply the query's filters, joins
// are hash joins on the predicates crossing the node, moves materialize
// intermediates on the destination engine. The final result is projected
// onto the query's SELECT list.
func Execute(plan *OptimizedPlan, q *Query, cat *Catalog, reg *Registry) (*ExecResult, error) {
	if plan == nil || plan.Root == nil {
		return nil, fmt.Errorf("musqle: nil plan")
	}
	res := &ExecResult{}
	idx := make(map[string]int, len(q.Tables))
	for i, t := range q.Tables {
		idx[t] = i
	}
	out, err := execNode(plan.Root, q, cat, reg, idx, res)
	if err != nil {
		return nil, err
	}
	for _, e := range plan.EnginesUsed {
		if eng, ok := reg.Get(e); ok {
			res.SimSec += eng.StartupSec()
		}
	}
	if len(q.Select) > 0 {
		out, err = project(out, q.Select)
		if err != nil {
			return nil, err
		}
	}
	res.Table = out
	return res, nil
}

func execNode(n *PlanNode, q *Query, cat *Catalog, reg *Registry, idx map[string]int, res *ExecResult) (*sqldata.Table, error) {
	eng, ok := reg.Get(n.Engine)
	if !ok {
		return nil, fmt.Errorf("musqle: plan references unknown engine %q", n.Engine)
	}
	switch n.Kind {
	case NodeScan:
		ti, ok := cat.Table(n.Table)
		if !ok {
			return nil, fmt.Errorf("musqle: unknown table %q", n.Table)
		}
		raw := float64(ti.Table.NumRows())
		res.SimSec += eng.ScanSec(raw, raw*rowBytes)
		return applyFilters(ti.Table, q.FiltersOn(n.Table)), nil

	case NodeMove:
		child, err := execNode(n.Child, q, cat, reg, idx, res)
		if err != nil {
			return nil, err
		}
		rows := float64(child.NumRows())
		res.SimSec += eng.LoadSec(rows, float64(child.Bytes()))
		res.MoveRows += int64(child.NumRows())
		return child, nil

	case NodeJoin:
		left, err := execNode(n.Left, q, cat, reg, idx, res)
		if err != nil {
			return nil, err
		}
		right, err := execNode(n.Right, q, cat, reg, idx, res)
		if err != nil {
			return nil, err
		}
		preds := crossingPreds(q, idx, n.Left.mask, n.Right.mask)
		if len(preds) == 0 {
			return nil, fmt.Errorf("musqle: join node without crossing predicates")
		}
		joined, err := HashJoin(left, right, preds)
		if err != nil {
			return nil, err
		}
		sec, feasible := eng.JoinSec(float64(left.NumRows()), float64(right.NumRows()), float64(joined.NumRows()))
		if !feasible {
			return nil, fmt.Errorf("musqle: engine %s ran out of memory joining %d x %d rows",
				n.Engine, left.NumRows(), right.NumRows())
		}
		res.SimSec += sec
		return joined, nil
	}
	return nil, fmt.Errorf("musqle: unknown node kind %d", n.Kind)
}

// crossingPreds selects the query joins with one side in each mask.
func crossingPreds(q *Query, idx map[string]int, leftMask, rightMask uint) []JoinPred {
	var out []JoinPred
	for _, j := range q.Joins {
		l, r := uint(1)<<idx[j.LeftTable], uint(1)<<idx[j.RightTable]
		switch {
		case leftMask&l != 0 && rightMask&r != 0:
			out = append(out, j)
		case leftMask&r != 0 && rightMask&l != 0:
			out = append(out, JoinPred{
				LeftTable: j.RightTable, LeftCol: j.RightCol,
				RightTable: j.LeftTable, RightCol: j.LeftCol,
			})
		}
	}
	return out
}

func applyFilters(t *sqldata.Table, filters []Filter) *sqldata.Table {
	if len(filters) == 0 {
		return t
	}
	out := &sqldata.Table{Name: t.Name, Cols: t.Cols}
	cols := make([]int, len(filters))
	for i, f := range filters {
		cols[i] = t.ColIndex(f.Col)
	}
	for _, row := range t.Rows {
		keep := true
		for i, f := range filters {
			if cols[i] < 0 || !f.Op.Eval(row[cols[i]], f.Value) {
				keep = false
				break
			}
		}
		if keep {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// HashJoin performs an equality hash join on the given predicates. The
// output schema concatenates both inputs' columns (TPC-H column prefixes
// keep names unique).
func HashJoin(left, right *sqldata.Table, preds []JoinPred) (*sqldata.Table, error) {
	lcols := make([]int, len(preds))
	rcols := make([]int, len(preds))
	for i, p := range preds {
		lcols[i] = left.ColIndex(p.LeftCol)
		rcols[i] = right.ColIndex(p.RightCol)
		if lcols[i] < 0 || rcols[i] < 0 {
			return nil, fmt.Errorf("musqle: join column %s/%s missing from inputs", p.LeftCol, p.RightCol)
		}
	}
	out := &sqldata.Table{
		Name: left.Name + "_" + right.Name,
		Cols: append(append([]string(nil), left.Cols...), right.Cols...),
	}
	// Build on the smaller side.
	build, probe := right, left
	bcols, pcols := rcols, lcols
	buildRight := true
	if left.NumRows() < right.NumRows() {
		build, probe = left, right
		bcols, pcols = lcols, rcols
		buildRight = false
	}
	type key [4]int64 // up to 4 join columns
	if len(preds) > 4 {
		return nil, fmt.Errorf("musqle: more than 4 join predicates between two relations")
	}
	mkKey := func(row []int64, cols []int) key {
		var k key
		for i, c := range cols {
			k[i] = row[c]
		}
		return k
	}
	ht := make(map[key][][]int64, build.NumRows())
	for _, row := range build.Rows {
		k := mkKey(row, bcols)
		ht[k] = append(ht[k], row)
	}
	for _, prow := range probe.Rows {
		k := mkKey(prow, pcols)
		for _, brow := range ht[k] {
			var lrow, rrow []int64
			if buildRight {
				lrow, rrow = prow, brow
			} else {
				lrow, rrow = brow, prow
			}
			combined := make([]int64, 0, len(lrow)+len(rrow))
			combined = append(combined, lrow...)
			combined = append(combined, rrow...)
			out.Rows = append(out.Rows, combined)
		}
	}
	return out, nil
}

func project(t *sqldata.Table, cols []string) (*sqldata.Table, error) {
	idxs := make([]int, len(cols))
	for i, c := range cols {
		idxs[i] = t.ColIndex(c)
		if idxs[i] < 0 {
			return nil, fmt.Errorf("musqle: projection column %q not in result", c)
		}
	}
	out := &sqldata.Table{Name: t.Name, Cols: append([]string(nil), cols...)}
	out.Rows = make([][]int64, len(t.Rows))
	for r, row := range t.Rows {
		nr := make([]int64, len(idxs))
		for i, ci := range idxs {
			nr[i] = row[ci]
		}
		out.Rows[r] = nr
	}
	return out, nil
}

// ReferenceExecute computes the query result with filtered nested-loop
// joins in table order — the correctness oracle for tests.
func ReferenceExecute(q *Query, cat *Catalog) (*sqldata.Table, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	var acc *sqldata.Table
	joinedMask := uint(0)
	idx := make(map[string]int, len(q.Tables))
	for i, t := range q.Tables {
		idx[t] = i
	}
	remaining := append([]string(nil), q.Tables...)
	filteredOf := func(t string) (*sqldata.Table, error) {
		ti, ok := cat.Table(t)
		if !ok {
			return nil, fmt.Errorf("musqle: unknown table %q", t)
		}
		return applyFilters(ti.Table, q.FiltersOn(t)), nil
	}
	// Greedily attach the smallest connected table next: keeps reference
	// intermediates from exploding on star-shaped queries.
	for len(remaining) > 0 {
		bestIdx := -1
		var bestTable *sqldata.Table
		for i, t := range remaining {
			filtered, err := filteredOf(t)
			if err != nil {
				return nil, err
			}
			if acc != nil && len(crossingPreds(q, idx, joinedMask, 1<<idx[t])) == 0 {
				continue
			}
			if bestIdx < 0 || filtered.NumRows() < bestTable.NumRows() {
				bestIdx, bestTable = i, filtered
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("musqle: reference execution stuck (disconnected graph)")
		}
		t := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		if acc == nil {
			acc = bestTable
			joinedMask = 1 << idx[t]
			continue
		}
		preds := crossingPreds(q, idx, joinedMask, 1<<idx[t])
		var err error
		acc, err = nestedLoopJoin(acc, bestTable, preds)
		if err != nil {
			return nil, err
		}
		joinedMask |= 1 << idx[t]
	}
	if bits.OnesCount(joinedMask) != len(q.Tables) {
		return nil, fmt.Errorf("musqle: reference execution incomplete")
	}
	if len(q.Select) > 0 {
		return project(acc, q.Select)
	}
	return acc, nil
}

func nestedLoopJoin(left, right *sqldata.Table, preds []JoinPred) (*sqldata.Table, error) {
	lcols := make([]int, len(preds))
	rcols := make([]int, len(preds))
	for i, p := range preds {
		lcols[i] = left.ColIndex(p.LeftCol)
		rcols[i] = right.ColIndex(p.RightCol)
		if lcols[i] < 0 || rcols[i] < 0 {
			return nil, fmt.Errorf("musqle: join column %s/%s missing", p.LeftCol, p.RightCol)
		}
	}
	out := &sqldata.Table{
		Name: left.Name + "_" + right.Name,
		Cols: append(append([]string(nil), left.Cols...), right.Cols...),
	}
	for _, lr := range left.Rows {
		for _, rr := range right.Rows {
			match := true
			for i := range preds {
				if lr[lcols[i]] != rr[rcols[i]] {
					match = false
					break
				}
			}
			if match {
				combined := make([]int64, 0, len(lr)+len(rr))
				combined = append(combined, lr...)
				combined = append(combined, rr...)
				out.Rows = append(out.Rows, combined)
			}
		}
	}
	return out, nil
}
