package operator

import (
	"fmt"
	"testing"

	"github.com/asap-project/ires/internal/metadata"
)

const lineCountDesc = `
Constraints.Engine=Spark
Constraints.Output.number=1
Constraints.Input.number=1
Constraints.OpSpecification.Algorithm.name=LineCount
Optimization.cost=1.0
Optimization.execTime=1.0
Execution.Arguments.number=2
Execution.Output0.path=$HDFS_OP_DIR/lines.out
`

func TestNewMaterialized(t *testing.T) {
	m, err := NewMaterialized("LineCount", metadata.MustParse(lineCountDesc))
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine() != "Spark" {
		t.Errorf("Engine = %q", m.Engine())
	}
	if m.Algorithm() != "LineCount" {
		t.Errorf("Algorithm = %q", m.Algorithm())
	}
}

func TestNewMaterializedMissingCompulsory(t *testing.T) {
	if _, err := NewMaterialized("x", metadata.MustParse("Constraints.Engine=Spark")); err == nil {
		t.Fatal("missing algorithm should fail")
	}
	if _, err := NewMaterialized("x", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=a")); err == nil {
		t.Fatal("missing engine should fail")
	}
	if _, err := NewMaterialized("x", nil); err == nil {
		t.Fatal("nil metadata should fail")
	}
}

func TestDatasetAccessors(t *testing.T) {
	d := NewDataset("textData", metadata.MustParse(`
Constraints.Engine.FS=HDFS
Constraints.type=text
Execution.path=hdfs:///user/asap/input/textData
Optimization.size=932E06
Optimization.documents=1200
`))
	if !d.IsMaterialized() {
		t.Fatal("dataset with path should be materialized")
	}
	if got := d.SizeBytes(); got != 932000000 {
		t.Errorf("SizeBytes = %d", got)
	}
	if got := d.Records(); got != 1200 {
		t.Errorf("Records = %d", got)
	}
	abstract := NewDataset("d1", nil)
	if abstract.IsMaterialized() {
		t.Fatal("empty dataset should be abstract")
	}
	if abstract.SizeBytes() != 0 || abstract.Records() != 0 {
		t.Fatal("abstract dataset should have zero size/records")
	}
}

func TestMatchesAbstract(t *testing.T) {
	m, err := NewMaterialized("tfidf_mahout", metadata.MustParse(`
Constraints.Engine=Hadoop
Constraints.Input.number=1
Constraints.Output.number=1
Constraints.OpSpecification.Algorithm.name=TF_IDF
`))
	if err != nil {
		t.Fatal(err)
	}
	a := NewAbstract("tfidf", metadata.MustParse(`
Constraints.Input.number=1
Constraints.OpSpecification.Algorithm.name=TF_IDF
Constraints.Output.number=1
`))
	if !m.MatchesAbstract(a) {
		t.Fatal("materialized should match abstract")
	}
	wrongArity := NewAbstract("tfidf2", metadata.MustParse(`
Constraints.Input.number=2
Constraints.OpSpecification.Algorithm.name=TF_IDF
`))
	if m.MatchesAbstract(wrongArity) {
		t.Fatal("arity mismatch should not match")
	}
}

func TestAcceptsInput(t *testing.T) {
	m, err := NewMaterialized("kmeans_cilk", metadata.MustParse(`
Constraints.Engine=Cilk
Constraints.OpSpecification.Algorithm.name=kmeans
Constraints.Input0.Engine.FS=HDFS
Constraints.Input0.type=arff
`))
	if err != nil {
		t.Fatal(err)
	}
	good := metadata.MustParse("Engine.FS=HDFS\ntype=arff")
	bad := metadata.MustParse("Engine.FS=HDFS\ntype=text")
	if !m.AcceptsInput(0, good) {
		t.Fatal("arff input should be accepted")
	}
	if m.AcceptsInput(0, bad) {
		t.Fatal("text input should be rejected")
	}
	// Input slot without constraints accepts anything.
	if !m.AcceptsInput(1, bad) {
		t.Fatal("unconstrained slot should accept anything")
	}
}

func TestLibraryIndexAndMatch(t *testing.T) {
	lib := NewLibrary()
	for i, eng := range []string{"Spark", "Hadoop", "Java"} {
		desc := fmt.Sprintf("Constraints.Engine=%s\nConstraints.OpSpecification.Algorithm.name=TF_IDF", eng)
		if _, err := lib.AddOperatorDescription(fmt.Sprintf("tfidf_%d", i), desc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lib.AddOperatorDescription("kmeans_0",
		"Constraints.Engine=Spark\nConstraints.OpSpecification.Algorithm.name=kmeans"); err != nil {
		t.Fatal(err)
	}

	a := NewAbstract("tfidf", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=TF_IDF"))
	got := lib.FindMaterialized(a)
	if len(got) != 3 {
		t.Fatalf("FindMaterialized found %d, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Name >= got[i].Name {
			t.Fatal("results not sorted by name")
		}
	}

	// Unconstrained abstract matches everything.
	any := NewAbstract("any", metadata.New())
	if n := len(lib.FindMaterialized(any)); n != 4 {
		t.Fatalf("unconstrained match found %d, want 4", n)
	}

	// Re-registering an operator under another algorithm moves it between
	// index entries.
	if _, err := lib.AddOperatorDescription("tfidf_1",
		"Constraints.Engine=Hadoop\nConstraints.OpSpecification.Algorithm.name=kmeans"); err != nil {
		t.Fatal(err)
	}
	if n := len(lib.FindMaterialized(a)); n != 2 {
		t.Fatalf("after re-registration found %d TF_IDF operators, want 2", n)
	}
	km := NewAbstract("kmeans", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=kmeans"))
	if n := len(lib.FindMaterialized(km)); n != 2 {
		t.Fatalf("after re-registration found %d kmeans operators, want 2", n)
	}
}

func TestLibraryReplaceOperator(t *testing.T) {
	lib := NewLibrary()
	if _, err := lib.AddOperatorDescription("op",
		"Constraints.Engine=Spark\nConstraints.OpSpecification.Algorithm.name=a"); err != nil {
		t.Fatal(err)
	}
	if _, err := lib.AddOperatorDescription("op",
		"Constraints.Engine=Java\nConstraints.OpSpecification.Algorithm.name=b"); err != nil {
		t.Fatal(err)
	}
	if lib.Len() != 1 {
		t.Fatalf("Len = %d, want 1", lib.Len())
	}
	a := NewAbstract("a", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=a"))
	if len(lib.FindMaterialized(a)) != 0 {
		t.Fatal("stale index entry after replacement")
	}
	b := NewAbstract("b", metadata.MustParse("Constraints.OpSpecification.Algorithm.name=b"))
	if len(lib.FindMaterialized(b)) != 1 {
		t.Fatal("replacement not indexed")
	}
}

func TestLibraryDatasets(t *testing.T) {
	lib := NewLibrary()
	if _, err := lib.AddDatasetDescription("logs", "Execution.path=hdfs:///logs"); err != nil {
		t.Fatal(err)
	}
	d, ok := lib.Dataset("logs")
	if !ok || !d.IsMaterialized() {
		t.Fatal("dataset lookup failed")
	}
	if _, ok := lib.Dataset("absent"); ok {
		t.Fatal("absent dataset reported present")
	}
}

func TestLibraryParseErrors(t *testing.T) {
	lib := NewLibrary()
	if _, err := lib.AddOperatorDescription("bad", "not a property"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := lib.AddDatasetDescription("bad", "also not"); err == nil {
		t.Fatal("expected parse error")
	}
	if err := lib.AddOperator(nil); err == nil {
		t.Fatal("expected nil operator error")
	}
	if err := lib.AddDataset(nil); err == nil {
		t.Fatal("expected nil dataset error")
	}
}
