package musqle

import (
	"testing"

	"github.com/asap-project/ires/internal/sqldata"
)

// maxFuzzSQL caps FuzzParse's inputs: longer queries only repeat clauses.
const maxFuzzSQL = 4 << 10

// FuzzParse checks that Parse never panics on any input, and that a query it
// accepts renders to SQL it accepts again, rendering the same text.
func FuzzParse(f *testing.F) {
	cat := NewCatalog()
	if err := cat.LoadTPCH(sqldata.Generate(0.0002, 11)); err != nil {
		f.Fatal(err)
	}
	queries, err := QuerySet18(cat)
	if err != nil {
		f.Fatal(err)
	}
	for _, q := range queries {
		f.Add(q.SQL())
	}
	for _, sql := range parseErrorCases {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		if len(sql) > maxFuzzSQL {
			t.Skip()
		}
		q, err := Parse(sql, cat)
		if err != nil {
			return
		}
		once := q.SQL()
		again, err := Parse(once, cat)
		if err != nil {
			t.Fatalf("rendering %q of %q does not parse: %v", once, sql, err)
		}
		if twice := again.SQL(); twice != once {
			t.Fatalf("Parse∘SQL is not a fixed point on %q:\nonce:  %q\ntwice: %q", sql, once, twice)
		}
	})
}
