package operator

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/asap-project/ires/internal/metadata"
)

// TestFindMaterializedSeesEveryMutation checks that FindMaterialized reads
// the library as it is now: adding a matching operator appears in the next
// lookup, and a replacement under the same name that no longer matches drops
// out of it.
func TestFindMaterializedSeesEveryMutation(t *testing.T) {
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

	if got := lib.FindMaterialized(a); len(got) != 1 || got[0].Name != "tfidf_spark" {
		t.Fatalf("initial match = %v", got)
	}

	// A new matching operator appears in the next lookup.
	mk("tfidf_hadoop", "Hadoop", "TF_IDF")
	got := lib.FindMaterialized(a)
	if len(got) != 2 || got[0].Name != "tfidf_hadoop" || got[1].Name != "tfidf_spark" {
		t.Fatalf("after add: %v, want [tfidf_hadoop tfidf_spark]", names(got))
	}

	// A non-matching operator stays out.
	mk("kmeans_spark", "Spark", "kmeans")
	if got := lib.FindMaterialized(a); len(got) != 2 {
		t.Fatalf("non-matching add leaked into the match: %d results", len(got))
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

// TestLibraryConcurrentReregistration re-registers operators, moving them
// between two algorithms, while readers look them up: under the race
// detector, a reader never sees the algorithm index mid-edit, and every
// answer is in name order and holds only operators that match.
func TestLibraryConcurrentReregistration(t *testing.T) {
	lib := NewLibrary()
	algs := []string{"tfidf", "kmeans"}
	a := NewAbstract("a", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=tfidf"))
	sorted := func(ms []*Materialized) bool {
		return slices.IsSortedFunc(ms, func(x, y *Materialized) int { return byName(x, y.Name) })
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				desc := "Constraints.Engine=Spark\nConstraints.OpSpecification.Algorithm.name=" + algs[(i+w)%2]
				if _, err := lib.AddOperatorDescription(fmt.Sprintf("op%d", (i*3+w)%5), desc); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				found, impls := lib.FindMaterialized(a), lib.Implementations("tfidf")
				if !sorted(found) || !sorted(impls) || !sorted(lib.Operators()) {
					t.Error("a listing is out of name order")
					return
				}
				for _, m := range append(found, impls...) {
					if m.Algorithm() != "tfidf" {
						t.Errorf("%s implements %s, listed for tfidf", m.Name, m.Algorithm())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestNewAbstractAllocations pins what building an abstract operator from a
// parsed one-line constraint costs: the operator, its definition rendering
// and the rendering's buffer.
func TestNewAbstractAllocations(t *testing.T) {
	meta := metadata.MustParse("Constraints.OpSpecification.Algorithm.name=tfidf")
	if got := testing.AllocsPerRun(100, func() { NewAbstract("tfidf", meta) }); got != 3 {
		t.Fatalf("NewAbstract allocates %v times, want 3", got)
	}
}

// The fuzz script's vocabulary: operator names, algorithms ("" declares
// none, which registration refuses; "*" is a literal value on an operator
// and the wildcard on an abstract one), engines, and extra Constraints keys.
var (
	fuzzNames   = []string{"op0", "op1", "op2", "op3", "op4"}
	fuzzAlgs    = []string{"tfidf", "kmeans", "pagerank", metadata.Wildcard, ""}
	fuzzEngines = []string{"Spark", "Hadoop", "Java"}
	fuzzExtras  = []string{"Input0.Engine.FS=HDFS", "Output0.type=text", "type=x"}
)

// fuzzDescription renders Constraints lines: the algorithm if any, the
// engine if any, and the extras whose bit is set.
func fuzzDescription(alg, engine string, extras byte) string {
	var lines []string
	if alg != "" {
		lines = append(lines, "Constraints.OpSpecification.Algorithm.name="+alg)
	}
	if engine != "" {
		lines = append(lines, "Constraints.Engine="+engine)
	}
	for i, e := range fuzzExtras {
		if extras&(1<<i) != 0 {
			lines = append(lines, "Constraints."+e)
		}
	}
	return strings.Join(lines, "\n")
}

// referenceFind is the brute-force match: every registered operator's
// MatchesAbstract, in name order.
func referenceFind(ops map[string]*Materialized, a *Abstract) []*Materialized {
	var out []*Materialized
	for _, name := range sortedKeys(ops) {
		if ops[name].MatchesAbstract(a) {
			out = append(out, ops[name])
		}
	}
	return out
}

// referenceImplementations is every registered operator whose algorithm is
// alg, in name order; "" has none.
func referenceImplementations(ops map[string]*Materialized, alg string) []*Materialized {
	var out []*Materialized
	for _, name := range sortedKeys(ops) {
		if alg != "" && ops[name].Algorithm() == alg {
			out = append(out, ops[name])
		}
	}
	return out
}

func sortedKeys(ops map[string]*Materialized) []string {
	names := make([]string, 0, len(ops))
	for n := range ops {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// FuzzFindMaterialized holds the library's algorithm-indexed match scan to
// the brute-force reference. Each two-byte step of a script either registers
// an operator (a new name or a re-registration that changes its algorithm,
// engine or constraints; an operator with no algorithm is refused and must
// change nothing) or looks one abstract operator up. After every step, the
// step's lookup, every abstract of the vocabulary and every algorithm's
// Implementations equal the reference, operator for operator.
func FuzzFindMaterialized(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0})
	f.Add([]byte{0, 0, 2, 0, 4, 1, 0, 9, 1, 3, 3, 4, 2, 2})
	f.Add([]byte{0, 3, 2, 3, 1, 3, 1, 4, 0, 0xe0, 1, 0xf8})
	f.Add([]byte{6, 0, 8, 4, 6, 1, 1, 0x21, 0, 1, 1, 0x19})
	f.Fuzz(func(t *testing.T, script []byte) {
		lib := NewLibrary()
		ops := map[string]*Materialized{}
		var abstracts []*Abstract
		for _, alg := range fuzzAlgs {
			for extras := byte(0); extras < 1<<len(fuzzExtras); extras++ {
				for _, eng := range append([]string{"", metadata.Wildcard}, fuzzEngines...) {
					abstracts = append(abstracts, NewAbstract("a", metadata.MustParse(fuzzDescription(alg, eng, extras))))
				}
			}
		}
		check := func(step int, got, want []*Materialized, what string) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: %s = %v, want %v", step, what, names(got), names(want))
			}
		}
		for step := 0; step+1 < len(script) && step < 64; step += 2 {
			b0, b1 := script[step], script[step+1]
			alg := fuzzAlgs[int(b1)%len(fuzzAlgs)]
			if b0&1 == 0 {
				name := fuzzNames[int(b0>>1)%len(fuzzNames)]
				desc := fuzzDescription(alg, fuzzEngines[int(b1>>3)%len(fuzzEngines)], b1>>5)
				gen := lib.Gen()
				m, err := lib.AddOperatorDescription(name, desc)
				switch {
				case alg == "" && err == nil:
					t.Fatalf("step %d: an operator with no algorithm was registered", step)
				case alg == "" && lib.Gen() != gen:
					t.Fatalf("step %d: a refused registration moved Gen", step)
				case alg != "" && err != nil:
					t.Fatalf("step %d: %v", step, err)
				case err == nil:
					ops[name] = m
				}
			} else {
				eng := append([]string{"", metadata.Wildcard}, fuzzEngines...)[int(b0>>1)%(2+len(fuzzEngines))]
				a := NewAbstract("a", metadata.MustParse(fuzzDescription(alg, eng, b1>>3)))
				check(step, lib.FindMaterialized(a), referenceFind(ops, a), "FindMaterialized("+a.Definition()+")")
			}
			for _, a := range abstracts {
				check(step, lib.FindMaterialized(a), referenceFind(ops, a), "FindMaterialized("+a.Definition()+")")
			}
			for _, alg := range fuzzAlgs {
				check(step, lib.Implementations(alg), referenceImplementations(ops, alg), "Implementations("+alg+")")
			}
		}
	})
}

func names(ms []*Materialized) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}
