package sqldata

import "testing"

func TestGenerateCardinalities(t *testing.T) {
	tables := Generate(0.01, 1)
	if len(tables) != 8 {
		t.Fatalf("tables = %d", len(tables))
	}
	if n := tables["region"].NumRows(); n != 5 {
		t.Errorf("region rows = %d", n)
	}
	if n := tables["nation"].NumRows(); n != 25 {
		t.Errorf("nation rows = %d", n)
	}
	if n := tables["lineitem"].NumRows(); n != 60_000 {
		t.Errorf("lineitem rows = %d, want 60000", n)
	}
	if n := tables["customer"].NumRows(); n != 1_500 {
		t.Errorf("customer rows = %d, want 1500", n)
	}
}

func TestForeignKeyIntegrity(t *testing.T) {
	tables := Generate(0.005, 2)
	for _, fk := range ForeignKeys() {
		child := tables[fk.Table]
		parent := tables[fk.RefTable]
		ci := child.ColIndex(fk.Col)
		pi := parent.ColIndex(fk.RefCol)
		if ci < 0 || pi < 0 {
			t.Fatalf("fk %v: column missing", fk)
		}
		keys := make(map[int64]bool, parent.NumRows())
		for _, r := range parent.Rows {
			keys[r[pi]] = true
		}
		for _, r := range child.Rows {
			if !keys[r[ci]] {
				t.Fatalf("fk %v: dangling value %d", fk, r[ci])
			}
		}
	}
}

func TestTableHelpers(t *testing.T) {
	tables := Generate(0.002, 3)
	c := tables["customer"]
	if c.ColIndex("c_custkey") != 0 || c.ColIndex("nope") != -1 {
		t.Fatal("ColIndex wrong")
	}
	if len(c.Cols) != 4 {
		t.Fatalf("customer has %d columns, want 4", len(c.Cols))
	}
	if c.Bytes() != int64(c.NumRows())*4*8 {
		t.Fatal("Bytes wrong")
	}
	if d := c.DistinctCount("c_custkey"); d != c.NumRows() {
		t.Fatalf("distinct custkey = %d, want %d", d, c.NumRows())
	}
	if c.DistinctCount("missing") != 0 {
		t.Fatal("distinct of missing column")
	}
	if Describe(tables) == "" {
		t.Fatal("Describe rendered nothing")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Generate(0.002, 7)
	b := Generate(0.002, 7)
	for name := range a {
		if a[name].NumRows() != b[name].NumRows() {
			t.Fatalf("%s cardinality differs", name)
		}
		for i := range a[name].Rows {
			for j := range a[name].Rows[i] {
				if a[name].Rows[i][j] != b[name].Rows[i][j] {
					t.Fatalf("%s row %d differs", name, i)
				}
			}
		}
	}
}

func TestScaleZeroClamped(t *testing.T) {
	tables := Generate(0, 1)
	if tables["lineitem"].NumRows() < 2 {
		t.Fatal("degenerate scale not clamped")
	}
}
