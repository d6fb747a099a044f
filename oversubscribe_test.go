package ires

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/trace"
)

// oversubscribeBatch runs the memory-oversubscription scenario: a 4-node
// cluster with a 1.5x memory overcommit ratio, two tenants whose slice
// demands fit under the overcommitted cap but exceed physical memory when
// both actually allocate on a node, and an always-fire OOM killer. The
// victim (the largest container — run A's, sized above run B's) dies
// mid-operator; durable checkpoints carry its banked iterations across the
// OOM-kill -> retry arc. Returns the full platform trace as JSONL, per-run
// traces, and the run snapshots in submission order.
func oversubscribeBatch(t *testing.T, seed int64) ([]byte, [][]trace.Event, []RunSnapshot) {
	t.Helper()
	p, runs := oversubscribePlatform(t, seed)
	var snaps []RunSnapshot
	var perRun [][]trace.Event
	for _, r := range runs {
		if _, _, err := r.Wait(); err != nil {
			t.Fatalf("%s: %v", r.ID(), err)
		}
		perRun = append(perRun, p.TraceForRun(r.ID()))
		snaps = append(snaps, r.Status())
	}
	if got := p.Cluster.ReservedNodes(); got != 0 {
		t.Fatalf("%d nodes still reserved after drain", got)
	}
	if sc, sm := p.Cluster.ReservedSlices(); sc != 0 || sm != 0 {
		t.Fatalf("slices still reserved after drain: (%d,%d)", sc, sm)
	}
	if err := p.Cluster.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, p.TraceEvents()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), perRun, snaps
}

// oversubscribePlatform builds and drains the oversubscription scenario,
// returning the platform and its two runs in submission order.
func oversubscribePlatform(t *testing.T, seed int64) (*Platform, []*Run) {
	t.Helper()
	p, err := NewPlatform(Options{
		Seed:          seed,
		ClusterNodes:  4,
		CoresPerNode:  4,
		MemMBPerNode:  3456,
		MemOvercommit: 1.5, // cap 5184MB per node
		Admission:     DRF(nil, 2),
		Retry:         RetryPolicy{MaxAttempts: 8, BaseBackoff: 4 * time.Second},
		Checkpoint:    CheckpointPolicy{Enabled: true, MinIntervalSec: 4, Durable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	registerStormOps(t, p)
	if err := p.InjectFaults(FaultConfig{Seed: seed, OOM: OOMKillFaults{Prob: 1}}); err != nil {
		t.Fatal(err)
	}

	// A's 2916MB slice and B's 2268MB slice sum to the 5184MB overcommitted
	// cap, but to 5184 > 3456 physical once both allocate: B's allocation
	// triggers the sweep and the victim — the largest container — is A's,
	// killing A's in-flight checkpointed attempt rather than B's newcomer.
	runA := p.SubmitWith(chainWorkflow(t, p, engine.AlgPagerank, engine.AlgKMeans, 120_000),
		SubmitOptions{Name: "mem-a", Tenant: "tenant-a", DemandCores: 2, DemandMemMB: 2916})
	runBCh := make(chan *Run, 1)
	p.Clock.Schedule(5*time.Second, func(time.Duration) {
		runBCh <- p.SubmitWith(singleAlgoWorkflow(t, p, engine.AlgKMeans, 15_000),
			SubmitOptions{Name: "mem-b", Tenant: "tenant-b", DemandCores: 2, DemandMemMB: 2268})
	})

	p.Drain()
	return p, []*Run{runA, <-runBCh}
}

// TestOversubscriptionOOMRecovery drives the OOM fault loop end to end: the
// oversubscribed workload completes, the killer actually fired, the killed
// run's checkpointed operators restore exactly their banked units (zero
// re-executed iterations), and the fault schedule counted its kills.
func TestOversubscriptionOOMRecovery(t *testing.T) {
	for _, seed := range []int64{71, 73} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			full, perRun, snaps := oversubscribeBatch(t, seed)

			oomKills := bytes.Count(full, []byte(`"`+string(trace.EvOOMKill)+`"`))
			if oomKills == 0 {
				t.Fatal("no fault.oomkill events — the scenario no longer oversubscribes")
			}
			restores := 0
			for i, s := range snaps {
				_, r := assertCheckpointConsistency(t, s.ID, perRun[i])
				restores += r
			}
			if restores == 0 {
				t.Fatal("no checkpoint restores — OOM kills no longer hit checkpointed operators")
			}

			// Byte-identical repeat under the same seed.
			again, _, _ := oversubscribeBatch(t, seed)
			if !bytes.Equal(full, again) {
				t.Fatal("traces differ between two same-seed executions")
			}
		})
	}
}

// TestOversubscriptionDeterministicAcrossGOMAXPROCS pins the OOM-recovery
// timeline against scheduler parallelism: GOMAXPROCS=1 must reproduce the
// same bytes as the parallel run.
func TestOversubscriptionDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const seed = 71
	first, _, _ := oversubscribeBatch(t, seed)
	prev := runtime.GOMAXPROCS(1)
	second, _, _ := oversubscribeBatch(t, seed)
	runtime.GOMAXPROCS(prev)
	if !bytes.Equal(first, second) {
		t.Fatal("traces differ under GOMAXPROCS=1")
	}
}
