package executor

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden_*.jsonl fixtures")

// branchCrashScenario runs the two-branch workflow with every node crashing
// at 3 s and returning at 20 s: both wordcounts are in flight when the crash
// lands, lose their containers at the same monitor poll, retry and wait out
// the outage side by side. It returns the JSONL trace and the step log.
func branchCrashScenario(t *testing.T) ([]byte, []StepExec) {
	t.Helper()
	f := newFixture(t)
	rec := trace.NewRecorder(0)
	f.exec.Tracer = rec
	f.clus.SetTracer(rec)
	g := parallelBranches(t, 5000, 5000)
	plan, err := f.plnr.Plan(g)
	if err != nil {
		t.Fatal(err)
	}
	f.exec.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second}
	for _, n := range f.clus.Nodes() {
		if err := f.clus.FailNode(n.Name, 3*time.Second); err != nil {
			t.Fatal(err)
		}
		name := n.Name
		f.clock.Schedule(20*time.Second, func(time.Duration) { _ = f.clus.RestoreNode(name) })
	}
	res, err := f.execute(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	f.checkClean(t)
	var b bytes.Buffer
	if err := trace.WriteJSONL(&b, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), res.StepLog
}

// TestBranchCrashTraceDeterministic runs the branch-crash scenario 20 times
// in one process: every trace and step log must be identical, because a
// run's steps are visited in step order and no map iteration orders an
// event. The first trace is pinned in testdata/golden_branch_crash.jsonl;
// regenerate it with `go test ./internal/executor -run
// TestBranchCrashTraceDeterministic -update` (the package before the flag)
// and review the diff.
func TestBranchCrashTraceDeterministic(t *testing.T) {
	first, firstLog := branchCrashScenario(t)
	for _, want := range []string{`"type":"container.lost"`, `"type":"attempt.retry"`, `"type":"node.restore"`} {
		if !bytes.Contains(first, []byte(want)) {
			t.Fatalf("scenario lost its %s event", want)
		}
	}
	for i := 1; i < 20; i++ {
		got, log := branchCrashScenario(t)
		if !bytes.Equal(got, first) {
			t.Fatalf("run %d: trace differs from run 0:\n%s", i, firstDiff(got, first))
		}
		if !reflect.DeepEqual(log, firstLog) {
			t.Fatalf("run %d: step log differs from run 0:\n got: %+v\nwant: %+v", i, log, firstLog)
		}
	}
	path := filepath.Join("testdata", "golden_branch_crash.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, first, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(first, want) {
		t.Fatalf("%s: %s", path, firstDiff(first, want))
	}
}

// firstDiff names the first line at which two JSONL traces differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d differs:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
