package operator

import (
	"fmt"
	"testing"

	"github.com/asap-project/ires/internal/metadata"
)

// TestMatchIndexIncrementalMaintenance exercises the memoized match lists:
// once FindMaterialized has cached a result for an abstract shape, adding a
// matching operator must appear in subsequent lookups, and a replacement under
// the same name that no longer matches must drop out. Every mutation clears
// the memo, so each lookup after one rescans once.
func TestMatchIndexIncrementalMaintenance(t *testing.T) {
	lib := NewLibrary()
	mk := func(name, engine, alg string) {
		t.Helper()
		desc := fmt.Sprintf("Constraints.Engine=%s\nConstraints.OpSpecification.Algorithm.name=%s", engine, alg)
		if _, err := lib.AddOperatorDescription(name, desc); err != nil {
			t.Fatal(err)
		}
	}
	mk("tfidf_spark", "Spark", "TF_IDF")
	a := NewAbstract("tfidf", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=TF_IDF"))

	// Prime the index.
	if got := lib.FindMaterialized(a); len(got) != 1 || got[0].Name != "tfidf_spark" {
		t.Fatalf("initial match = %v", got)
	}

	// A new matching operator appears in the next lookup.
	mk("tfidf_hadoop", "Hadoop", "TF_IDF")
	got := lib.FindMaterialized(a)
	if len(got) != 2 || got[0].Name != "tfidf_hadoop" || got[1].Name != "tfidf_spark" {
		names := make([]string, len(got))
		for i, m := range got {
			names[i] = m.Name
		}
		t.Fatalf("after add: %v, want [tfidf_hadoop tfidf_spark]", names)
	}

	// A non-matching operator stays out.
	mk("kmeans_spark", "Spark", "kmeans")
	if got := lib.FindMaterialized(a); len(got) != 2 {
		t.Fatalf("non-matching add leaked into index: %d results", len(got))
	}

	// Replacing a matching operator with a non-matching definition under the
	// same name removes it from the next lookup.
	mk("tfidf_hadoop", "Hadoop", "kmeans")
	if got := lib.FindMaterialized(a); len(got) != 1 || got[0].Name != "tfidf_spark" {
		t.Fatalf("after non-matching replacement of tfidf_hadoop: %v", got)
	}
	mk("tfidf_spark", "Spark", "kmeans")
	if got := lib.FindMaterialized(a); len(got) != 0 {
		t.Fatalf("stale entry after non-matching replacement: %v", got)
	}
	// And replacing it back restores it.
	mk("tfidf_spark", "Spark", "TF_IDF")
	if got := lib.FindMaterialized(a); len(got) != 1 || got[0].Name != "tfidf_spark" {
		t.Fatalf("matching replacement not re-indexed: %v", got)
	}
}

// TestLibraryGen checks the mutation generation counter the planner folds
// into its cache validity.
func TestLibraryGen(t *testing.T) {
	lib := NewLibrary()
	if lib.Gen() != 0 {
		t.Fatalf("fresh library Gen = %d", lib.Gen())
	}
	if _, err := lib.AddOperatorDescription("op",
		"Constraints.Engine=Spark\nConstraints.OpSpecification.Algorithm.name=a"); err != nil {
		t.Fatal(err)
	}
	g1 := lib.Gen()
	if g1 == 0 {
		t.Fatal("AddOperator did not bump Gen")
	}
	a := NewAbstract("a", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=a"))
	lib.FindMaterialized(a) // read-only: must not bump
	if lib.Gen() != g1 {
		t.Fatal("FindMaterialized bumped Gen")
	}
	if _, err := lib.AddOperatorDescription("op",
		"Constraints.Engine=Java\nConstraints.OpSpecification.Algorithm.name=a"); err != nil {
		t.Fatal(err)
	}
	if lib.Gen() <= g1 {
		t.Fatal("re-registering an operator did not bump Gen")
	}
}

// TestLibraryEngines checks the sorted distinct-engine listing used by the
// planner's availability fingerprint.
func TestLibraryEngines(t *testing.T) {
	lib := NewLibrary()
	for i, eng := range []string{"Spark", "Hadoop", "Spark", "Java"} {
		desc := fmt.Sprintf("Constraints.Engine=%s\nConstraints.OpSpecification.Algorithm.name=a%d", eng, i)
		if _, err := lib.AddOperatorDescription(fmt.Sprintf("op%d", i), desc); err != nil {
			t.Fatal(err)
		}
	}
	got := lib.Engines()
	want := []string{"Hadoop", "Java", "Spark"}
	if len(got) != len(want) {
		t.Fatalf("Engines = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Engines = %v, want %v", got, want)
		}
	}
}
