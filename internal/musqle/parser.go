package musqle

import (
	"fmt"
	"strconv"
	"strings"
)

// CmpOp is a comparison operator of a filter predicate.
type CmpOp string

// Supported comparison operators.
const (
	OpEq CmpOp = "="
	OpNe CmpOp = "!="
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// Eval applies the operator.
func (o CmpOp) Eval(a, b int64) bool {
	switch o {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	return false
}

// JoinPred is an equality join between two tables' columns.
type JoinPred struct {
	LeftTable, LeftCol   string
	RightTable, RightCol string
}

// Filter is a comparison of a column against a literal.
type Filter struct {
	Table, Col string
	Op         CmpOp
	Value      int64
}

// Query is a parsed Select-Project-Join query.
type Query struct {
	Select  []string // projected columns; empty means *
	Tables  []string
	Joins   []JoinPred
	Filters []Filter
}

// FiltersOn returns the filters applying to one table.
func (q *Query) FiltersOn(table string) []Filter {
	var out []Filter
	for _, f := range q.Filters {
		if f.Table == table {
			out = append(out, f)
		}
	}
	return out
}

// SQL renders the query back to text.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if len(q.Select) == 0 {
		b.WriteString("*")
	} else {
		b.WriteString(strings.Join(q.Select, ", "))
	}
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(q.Tables, ", "))
	var preds []string
	for _, j := range q.Joins {
		preds = append(preds, fmt.Sprintf("%s = %s", j.LeftCol, j.RightCol))
	}
	for _, f := range q.Filters {
		preds = append(preds, fmt.Sprintf("%s %s %d", f.Col, f.Op, f.Value))
	}
	if len(preds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(preds, " AND "))
	}
	return b.String()
}

// Parse parses an SPJ query of the form
//
//	SELECT c1, c2 FROM t1, t2 WHERE t1.a = t2.b AND t1.x > 5
//
// Columns may be written qualified (t.col) or bare (col); bare names are
// resolved through the catalog (TPC-H column prefixes make them unique).
// Conjunctive predicates only; literals are integers.
func Parse(sql string, cat *Catalog) (*Query, error) {
	q := &Query{}
	s := strings.Join(strings.Fields(sql), " ") // normalize all whitespace
	s = strings.TrimSpace(strings.TrimSuffix(s, ";"))
	upper := upperASCII(s)
	if !strings.HasPrefix(upper, "SELECT ") {
		return nil, fmt.Errorf("musqle: query must start with SELECT: %q", sql)
	}
	fromIdx := strings.Index(upper, " FROM ")
	if fromIdx < 0 {
		return nil, fmt.Errorf("musqle: missing FROM clause")
	}
	if fromIdx < len("SELECT ") {
		return nil, fmt.Errorf("musqle: empty SELECT list")
	}
	selectPart := strings.TrimSpace(s[len("SELECT "):fromIdx])
	rest := s[fromIdx+len(" FROM "):]
	upperRest := upper[fromIdx+len(" FROM "):]
	wherePart := ""
	fromPart := rest
	if wi := strings.Index(upperRest, " WHERE "); wi >= 0 {
		fromPart = rest[:wi]
		wherePart = rest[wi+len(" WHERE "):]
	}

	// Tables.
	for _, t := range strings.Split(fromPart, ",") {
		name := strings.ToLower(strings.TrimSpace(t))
		if name == "" {
			return nil, fmt.Errorf("musqle: empty table in FROM")
		}
		if _, ok := cat.Table(name); !ok {
			return nil, fmt.Errorf("musqle: unknown table %q", name)
		}
		q.Tables = append(q.Tables, name)
	}

	resolve := func(ref string) (table, col string, err error) {
		ref = strings.ToLower(strings.TrimSpace(ref))
		if dot := strings.Index(ref, "."); dot >= 0 {
			table, col = ref[:dot], ref[dot+1:]
		} else {
			owner, ok := cat.OwnerOf(ref)
			if !ok {
				return "", "", fmt.Errorf("musqle: unknown column %q", ref)
			}
			table, col = owner, ref
		}
		ti, ok := cat.Table(table)
		if !ok {
			return "", "", fmt.Errorf("musqle: unknown table %q", table)
		}
		if ti.Table.ColIndex(col) < 0 {
			return "", "", fmt.Errorf("musqle: table %s has no column %s", table, col)
		}
		inFrom := false
		for _, t := range q.Tables {
			if t == table {
				inFrom = true
			}
		}
		if !inFrom {
			return "", "", fmt.Errorf("musqle: column %s.%s references table outside FROM", table, col)
		}
		return table, col, nil
	}

	// Projection.
	if selectPart != "*" {
		for _, c := range strings.Split(selectPart, ",") {
			_, col, err := resolve(c)
			if err != nil {
				return nil, err
			}
			q.Select = append(q.Select, col)
		}
	}

	// Predicates.
	if wherePart != "" {
		for _, predStr := range splitAnd(wherePart) {
			pred := strings.TrimSpace(predStr)
			op, lhs, rhs, err := splitCmp(pred)
			if err != nil {
				return nil, err
			}
			lt, lc, err := resolve(lhs)
			if err != nil {
				return nil, err
			}
			if v, errLit := strconv.ParseInt(strings.TrimSpace(rhs), 10, 64); errLit == nil {
				q.Filters = append(q.Filters, Filter{Table: lt, Col: lc, Op: op, Value: v})
				continue
			}
			rt, rc, err := resolve(rhs)
			if err != nil {
				return nil, err
			}
			if op != OpEq {
				return nil, fmt.Errorf("musqle: only equality joins supported: %q", pred)
			}
			if lt == rt {
				return nil, fmt.Errorf("musqle: self-join predicates unsupported: %q", pred)
			}
			q.Joins = append(q.Joins, JoinPred{LeftTable: lt, LeftCol: lc, RightTable: rt, RightCol: rc})
		}
	}
	return q, nil
}

// upperASCII upper-cases the ASCII letters of s and leaves every other byte
// alone, so an offset into the result is the same offset into s (ToUpper
// changes the length of some runes, and of invalid UTF-8).
func upperASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

func splitAnd(where string) []string {
	upper := upperASCII(where)
	var out []string
	start := 0
	for {
		i := strings.Index(upper[start:], " AND ")
		if i < 0 {
			out = append(out, where[start:])
			return out
		}
		out = append(out, where[start:start+i])
		start += i + len(" AND ")
	}
}

func splitCmp(pred string) (CmpOp, string, string, error) {
	for _, op := range []CmpOp{OpNe, OpLe, OpGe, OpEq, OpLt, OpGt} {
		if i := strings.Index(pred, string(op)); i >= 0 {
			return op, pred[:i], pred[i+len(op):], nil
		}
	}
	return "", "", "", fmt.Errorf("musqle: no comparison operator in %q", pred)
}

// Validate checks the query's join graph is connected (required by the
// optimizer; cross products are rejected as in the MuSQLE prototype).
func (q *Query) Validate() error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("musqle: no tables")
	}
	if len(q.Tables) == 1 {
		return nil
	}
	idx := make(map[string]int, len(q.Tables))
	for i, t := range q.Tables {
		idx[t] = i
	}
	adj := make(map[int][]int)
	for _, j := range q.Joins {
		a, b := idx[j.LeftTable], idx[j.RightTable]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	seen := map[int]bool{0: true}
	stack := []int{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	if len(seen) != len(q.Tables) {
		return fmt.Errorf("musqle: join graph disconnected (cross products unsupported)")
	}
	return nil
}
