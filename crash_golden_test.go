package ires

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/trace"
)

// crashMixScenario runs four two-operator chains concurrently under
// FairShare(3) on a six-node cluster and returns the platform's whole trace
// as JSONL. Node crashes land between monitor polls (23 s, 37.5 s) and on a
// poll instant (50 s); the three nodes come back at 61, 76 and 91 s. Spark
// goes out at 30 s, so replans have only Hama, and a Hama breaker trip makes
// one run wait out the cooldown before it can plan again. The fixture pins
// when each concurrent party notices a lost container.
func crashMixScenario(t *testing.T) []byte {
	t.Helper()
	const seed = 42
	p, err := NewPlatform(Options{
		Seed:             seed,
		Admission:        FairShare(3),
		ClusterNodes:     6,
		CoresPerNode:     4,
		MemMBPerNode:     3456,
		Retry:            RetryPolicy{MaxAttempts: 2, BaseBackoff: 2 * time.Second},
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	registerStormOps(t, p)
	if err := p.InjectFaults(FaultConfig{
		Seed:    seed,
		Default: FaultTransient{FailProb: 0.3},
		Outages: []EngineOutage{{Engine: EngineSpark, At: 30 * time.Second}},
		NodeCrashes: []NodeCrash{
			{Node: "node1", At: 23 * time.Second},
			{Node: "node3", At: 37500 * time.Millisecond},
			{Node: "node4", At: 50 * time.Second},
		},
	}); err != nil {
		t.Fatal(err)
	}
	for i, node := range []string{"node1", "node3", "node4"} {
		node := node
		p.Clock.Schedule(time.Duration(61+15*i)*time.Second, func(time.Duration) { _ = p.RestoreNode(node) })
	}

	algos := [4][2]string{
		{engine.AlgPagerank, engine.AlgKMeans},
		{engine.AlgKMeans, engine.AlgPagerank},
		{engine.AlgPagerank, engine.AlgPagerank},
		{engine.AlgKMeans, engine.AlgKMeans},
	}
	records := [4]int64{150_000, 120_000, 90_000, 60_000}
	var runs []*Run
	for i := range algos {
		runs = append(runs, p.SubmitNamed(fmt.Sprintf("crash-%d", i), chainWorkflow(t, p, algos[i][0], algos[i][1], records[i])))
	}
	p.Drain()
	waitAll(runs)
	if err := p.Cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := trace.WriteJSONL(&b, p.TraceEvents()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCrashMixGolden pins the crash-mix trace byte for byte. Regenerate with
// `go test -run TestCrashMixGolden -update .` and review the diff.
func TestCrashMixGolden(t *testing.T) {
	got := crashMixScenario(t)
	for _, want := range []string{`"type":"container.lost"`, `"type":"breaker.trip"`, `"type":"fault.outage"`, `"type":"node.restore"`} {
		if !bytes.Contains(got, []byte(want)) {
			t.Fatalf("scenario lost its %s event", want)
		}
	}
	path := filepath.Join("testdata", "golden_crash_mix.jsonl")
	if *updateMetricsGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s: line %d differs:\n got: %s\nwant: %s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(g), len(w))
	}
}
