package scheduler

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/cluster"
)

// stormRun fires a randomized multi-tenant burst — staggered submissions
// with mixed tenants/users/priorities/deadlines, cancellations at arbitrary
// points, and node fail/restore — at one policy, and cross-checks the
// incrementally maintained indexed state against a from-scratch naive
// rebuild (CheckIndex) at every quiescent point. The schedule is a pure
// function of the seed, so failures replay exactly — and so does the outcome:
// the returned digest is a sha256 over every run's final Snapshot.
func stormRun(t *testing.T, policy Policy, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	const nRuns = 30
	specs := make(map[string]susSpec, nRuns)
	estimates := make(map[string][2]float64, nRuns)
	type sub struct {
		at       time.Duration
		opts     SubmitOptions
		target   string
		cancelAt time.Duration // 0 = never
	}
	subs := make([]sub, nRuns)
	tenants := []string{"acme", "beta", "gamma"}
	users := []string{"ana", "bob", "cat"}
	for i := range subs {
		id := fmt.Sprintf("run-%03d", i+1)
		steps := 1 + rng.Intn(5)
		stepDur := time.Duration(3+rng.Intn(8)) * time.Second
		specs[id] = susSpec{steps: steps, stepDur: stepDur}
		target := fmt.Sprintf("wf-%d", i)
		est := (time.Duration(steps) * stepDur).Seconds()
		estimates[target] = [2]float64{est, 1 + 10*rng.Float64()}
		at := time.Duration(rng.Intn(240)) * time.Second
		s := sub{
			at:     at,
			target: target,
			opts: SubmitOptions{
				Tenant:   tenants[rng.Intn(len(tenants))],
				User:     users[rng.Intn(len(users))],
				Priority: rng.Intn(5) - 2,
			},
		}
		if rng.Intn(2) == 0 {
			s.opts.Deadline = at + time.Duration(1.5*est)*time.Second + 10*time.Second
		}
		if rng.Intn(5) == 0 {
			s.cancelAt = at + time.Duration(rng.Intn(30))*time.Second
		}
		if rng.Intn(3) == 0 {
			// A third of the runs ask for per-node slices instead of whole
			// nodes, stressing the multi-dimensional counters alongside the
			// node-granular paths.
			s.opts.DemandCores = 1 + rng.Intn(6)
			s.opts.DemandMemMB = 1024 * (1 + rng.Intn(10))
		}
		subs[i] = s
	}

	rig := newSusRig(t, 6, policy, specs, estimates)
	// Memory overcommit plus a seeded OOM killer: the churn arcs below
	// oversubscribe nodes on purpose and the kill decision replays per seed.
	if err := rig.clu.SetMemOvercommit(1.3); err != nil {
		t.Fatal(err)
	}
	oomRng := rand.New(rand.NewSource(seed ^ 0x6f6f6d))
	rig.clu.SetOOMKiller(func(string, int) bool { return oomRng.Intn(2) == 0 })
	// Checks run inside clock callbacks, i.e. on party goroutines — a
	// t.Fatalf there would Goexit the run mid-execution and wedge the
	// scheduler. Record the first failure and report it from the test
	// goroutine after the drive loop.
	var (
		checkMu  sync.Mutex
		checkErr error
	)
	check := func(now time.Duration) {
		err := rig.sched.CheckIndex()
		if err == nil {
			// Per-dimension slice accounting is cross-checked from scratch
			// on the cluster side at the same quiescent points.
			err = rig.clu.CheckInvariants()
		}
		if err != nil {
			checkMu.Lock()
			if checkErr == nil {
				checkErr = fmt.Errorf("t=%v: %w", now, err)
			}
			checkMu.Unlock()
		}
	}

	// Submissions are scheduled in run-id order so ids match specs even when
	// several land on the same tick.
	runs := make([]*Run, nRuns)
	for i, s := range subs {
		i, s := i, s
		rig.clock.Schedule(s.at, func(now time.Duration) {
			runs[i] = rig.sched.SubmitWith(graph(s.target), s.opts)
			check(now)
		})
		if s.cancelAt > 0 {
			rig.clock.Schedule(s.cancelAt, func(now time.Duration) {
				if r := runs[i]; r != nil {
					r.Cancel()
				}
				check(now)
			})
		}
	}
	// Two fail/restore arcs stress the free/reserved delta counters and the
	// safety net under shrunken capacity.
	for k, node := range []string{"node2", "node5"} {
		failAt := time.Duration(40+80*k) * time.Second
		if err := rig.clu.FailNode(node, failAt); err != nil {
			t.Fatal(err)
		}
		node := node
		rig.clock.Schedule(failAt+35*time.Second, func(now time.Duration) {
			if err := rig.clu.RestoreNode(node); err != nil {
				checkMu.Lock()
				if checkErr == nil {
					checkErr = err
				}
				checkMu.Unlock()
				return
			}
			rig.sched.schedule()
			check(now)
		})
	}
	// Churn arcs drive actual memory usage past physical capacity: pairs of
	// memory-heavy slice reservations that first-fit onto the same node, so
	// the second allocation triggers the OOM sweep (kill or tolerate per the
	// seeded hook). Failed reservations are fine — under FIFO the scheduler
	// may hold every node — the arcs only fire where slices fit.
	for k := 0; k < 6; k++ {
		at := time.Duration(15+40*k) * time.Second
		holdSec := 10 + rng.Intn(20)
		rig.clock.Schedule(at, func(now time.Duration) {
			var ctrs []*cluster.Container
			var leases []*cluster.Reservation
			for j := 0; j < 2; j++ {
				r, err := rig.clu.ReserveSlices(1, 1, 9216)
				if err != nil {
					break
				}
				leases = append(leases, r)
				if got, err := rig.clu.AllocateIn(r, 1, 1, 9216); err == nil {
					ctrs = append(ctrs, got...)
				}
			}
			check(now)
			rig.clock.Schedule(now+time.Duration(holdSec)*time.Second, func(now time.Duration) {
				rig.clu.ReleaseAll(ctrs)
				for _, r := range leases {
					rig.clu.ReleaseReservation(r)
				}
				rig.sched.schedule()
				check(now)
			})
		})
	}
	// Random per-dimension resizes of live leases, whole-node ones included
	// (those shrink into slices and open their nodes): the cluster-side
	// resize machinery must stay invariant-preserving under scheduler load
	// (the scheduler's cached footprint may go stale; both index views share
	// it, so CheckIndex is unaffected).
	for tick := 25 * time.Second; tick < 280*time.Second; tick += 45 * time.Second {
		dc, dm := 1+rng.Intn(4), 1024*(1+rng.Intn(8))
		rig.clock.Schedule(tick, func(now time.Duration) {
			for _, r := range runs {
				if r == nil {
					continue
				}
				r.mu.Lock()
				lease := r.lease
				r.mu.Unlock()
				if lease == nil || lease.Released() {
					continue
				}
				_ = rig.clu.ResizeSlice(lease, dc, dm)
				check(now)
				break
			}
		})
	}
	// Periodic sweeps catch drift between event-driven checks.
	for tick := 5 * time.Second; tick < 300*time.Second; tick += 15 * time.Second {
		rig.clock.Schedule(tick, func(now time.Duration) { check(now) })
	}

	// The storm's submissions, cancels and faults all arrive from scheduled
	// callbacks. A pacer party sleeps from each to the next, so the clock is
	// never idle and never stepped from outside the cooperative schedule:
	// every callback fires from the dispatch, with every party parked — a
	// quiescent point for the checks, and one interleaving per seed.
	// (Stepping the clock from this goroutine across idle gaps raced with the
	// tail of the last finishing run, which could dispatch the next admitted
	// run mid-step: under load a cancel was seen firing before the submission
	// it targets had returned its handle.)
	pacer := rig.clock.Join()
	paced := make(chan struct{})
	go func() {
		defer close(paced)
		pacer.Await()
		for {
			at, ok := rig.clock.NextEventAt()
			if !ok {
				break
			}
			pacer.WaitUntil(at)
		}
		pacer.Leave()
	}()
	rig.clock.Kick()
	<-paced
	rig.sched.Drain()
	check(rig.clock.Now())
	checkMu.Lock()
	fatal := checkErr
	checkMu.Unlock()
	if fatal != nil {
		t.Fatal(fatal)
	}

	snaps := rig.sched.Runs()
	if len(snaps) != nRuns {
		t.Fatalf("Runs() = %d entries, want %d", len(snaps), nRuns)
	}
	for _, snap := range snaps {
		switch snap.Status {
		case "succeeded", "failed", "canceled":
		default:
			t.Fatalf("non-terminal run after drain: %+v", snap)
		}
		// Terminal pruning: the live index forgets the run, the frozen
		// record still serves it.
		if _, ok := rig.sched.Get(snap.ID); ok {
			t.Fatalf("%s terminal but still live in Get", snap.ID)
		}
		if got, ok := rig.sched.SnapshotOf(snap.ID); !ok || got.Status != snap.Status {
			t.Fatalf("SnapshotOf(%s) = %+v, %v", snap.ID, got, ok)
		}
	}
	final, err := json.Marshal(snaps)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(final))
}

// stormDigestsPath holds one "<policy>/seed<n> <sha256>" line per storm cell.
var stormDigestsPath = filepath.Join("testdata", "storm_digests.txt")

func readStormDigests(t *testing.T) map[string]string {
	t.Helper()
	digests := make(map[string]string)
	data, err := os.ReadFile(stormDigestsPath)
	if err != nil {
		if *updateGolden && os.IsNotExist(err) {
			return digests
		}
		t.Fatalf("missing storm digests (run with -update): %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		cell, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", stormDigestsPath, line)
		}
		digests[cell] = digest
	}
	return digests
}

func writeStormDigests(t *testing.T, digests map[string]string) {
	t.Helper()
	cells := make([]string, 0, len(digests))
	for cell := range digests {
		cells = append(cells, cell)
	}
	sort.Strings(cells)
	var b strings.Builder
	for _, cell := range cells {
		fmt.Fprintf(&b, "%s %s\n", cell, digests[cell])
	}
	if err := os.WriteFile(stormDigestsPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestIndexStorm cross-validates the indexed scheduler state against the
// naive rebuild across every policy and several seeds, and pins each cell's
// outcome to a checked-in digest: the golden scenarios set no User or
// Priority, so the storm is what holds the fair tree's decisions in place.
// Run with -update to rewrite the digests after an intentional semantic
// change.
func TestIndexStorm(t *testing.T) {
	policies := []func() Policy{
		func() Policy { return FIFO{} },
		func() Policy { return FairShare{MaxConcurrent: 2} },
		func() Policy { return Deadline{} },
		func() Policy {
			return CostQuota{Budgets: map[string]float64{"acme": 12, "beta": 18}, DefaultBudget: 9}
		},
		func() Policy { return HierarchicalFairShare{MaxConcurrent: 3} },
		func() Policy {
			return DRF{Weights: map[string]float64{"acme": 2}, MaxConcurrent: 3}
		},
	}
	digests := readStormDigests(t)
	for _, mk := range policies {
		for seed := int64(1); seed <= 8; seed++ {
			cell := fmt.Sprintf("%s/seed%d", mk().Name(), seed)
			t.Run(cell, func(t *testing.T) {
				got := stormRun(t, mk(), seed)
				t.Logf("digest %s", got)
				if *updateGolden {
					digests[cell] = got
					return
				}
				if want := digests[cell]; got != want {
					t.Fatalf("final snapshots digest %s, want %s", got, want)
				}
			})
		}
	}
	if *updateGolden {
		writeStormDigests(t, digests)
	}
}
