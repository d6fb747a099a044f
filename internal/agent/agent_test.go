package agent

import (
	"errors"
	"reflect"
	"testing"
)

func TestPlaceKillAccounting(t *testing.T) {
	a := New("node0", 8, 16384)
	if err := a.Place(Placement{ID: 1, Cores: 2, MemMB: 4096, ResID: 7}); err != nil {
		t.Fatal(err)
	}
	if err := a.Place(Placement{ID: 2, Cores: 4, MemMB: 8192}); err != nil {
		t.Fatal(err)
	}
	if rep := a.Report(); rep.UsedCores != 6 || rep.UsedMemMB != 12288 || !rep.Healthy {
		t.Fatalf("report after two placements = %+v", rep)
	}
	if !a.Hosts(1) || a.Hosts(3) {
		t.Fatal("Hosts wrong")
	}
	if got := a.Placements(); len(got) != 2 || got[0].ID != 1 || got[1].ResID != 0 {
		t.Fatalf("Placements = %+v", got)
	}
	if a.Name() != "node0" || a.Cores() != 8 || a.MemMB() != 16384 {
		t.Fatalf("capacity = %s %d cores %d MB", a.Name(), a.Cores(), a.MemMB())
	}
	p, ok := a.Kill(1)
	if !ok || p.Cores != 2 || p.ResID != 7 {
		t.Fatalf("kill = %+v, %v", p, ok)
	}
	if _, ok := a.Kill(1); ok {
		t.Fatal("double kill reported a placement")
	}
	rep := a.Report()
	if rep.UsedCores != 4 || rep.UsedMemMB != 8192 || !reflect.DeepEqual(rep.Containers, []int{2}) {
		t.Fatalf("report = %+v", rep)
	}
}

func TestPlaceRejections(t *testing.T) {
	a := New("node0", 4, 1024)
	if err := a.Place(Placement{ID: 1, Cores: 3, MemMB: 512}); err != nil {
		t.Fatal(err)
	}
	if err := a.Place(Placement{ID: 1, Cores: 1, MemMB: 1}); !errors.Is(err, ErrDuplicateContainer) {
		t.Fatalf("duplicate id error = %v", err)
	}
	if err := a.Place(Placement{ID: 2, Cores: 2, MemMB: 1}); !errors.Is(err, ErrOverCommitted) {
		t.Fatalf("core overflow error = %v", err)
	}
	// Memory may exceed physical capacity (overcommit is control-plane policy).
	if err := a.Place(Placement{ID: 3, Cores: 1, MemMB: 4096}); err != nil {
		t.Fatalf("memory overcommit rejected: %v", err)
	}
	a.Fail()
	if err := a.Place(Placement{ID: 4, Cores: 1, MemMB: 1}); !errors.Is(err, ErrAgentDown) {
		t.Fatalf("dead-agent error = %v", err)
	}
}

func TestFailDropsEverythingAndRestoreBumpsIncarnation(t *testing.T) {
	a := New("node0", 8, 16384)
	for id := 1; id <= 3; id++ {
		if err := a.Place(Placement{ID: id, Cores: 1, MemMB: 1024}); err != nil {
			t.Fatal(err)
		}
	}
	a.AddReplica("ckpt/b")
	a.AddReplica("ckpt/a")
	dropped, lost := a.Fail()
	if len(dropped) != 3 || dropped[0].ID != 1 || dropped[2].ID != 3 {
		t.Fatalf("dropped = %+v", dropped)
	}
	if !reflect.DeepEqual(lost, []string{"ckpt/a", "ckpt/b"}) {
		t.Fatalf("lost replicas = %v", lost)
	}
	if a.Healthy() {
		t.Fatal("failed agent reports healthy")
	}
	rep := a.Report()
	if rep.UsedCores != 0 || rep.UsedMemMB != 0 || len(rep.Containers) != 0 || len(rep.Replicas) != 0 {
		t.Fatalf("post-fail report = %+v", rep)
	}
	if d2, l2 := a.Fail(); d2 != nil || l2 != nil {
		t.Fatal("double fail dropped state")
	}
	inc := a.Incarnation()
	a.Restore()
	if !a.Healthy() || a.Incarnation() != inc+1 {
		t.Fatalf("restore: healthy=%v incarnation=%d", a.Healthy(), a.Incarnation())
	}
}

func TestReplicaBookkeeping(t *testing.T) {
	a := New("node0", 8, 16384)
	seq0 := a.Report().Seq
	a.AddReplica("k1")
	a.AddReplica("k1") // idempotent
	if got := a.Report(); got.Seq != seq0+1 || !reflect.DeepEqual(got.Replicas, []string{"k1"}) {
		t.Fatalf("report after add = %+v", got)
	}
	if !a.HasReplica("k1") || a.HasReplica("k2") || !reflect.DeepEqual(a.Replicas(), []string{"k1"}) {
		t.Fatalf("replicas = %v", a.Replicas())
	}
	a.DropReplica("k1")
	a.DropReplica("missing") // no-op
	if got := a.Report(); len(got.Replicas) != 0 {
		t.Fatalf("report after drop = %+v", got)
	}
}

func TestSetHealthyKeepsState(t *testing.T) {
	a := New("node0", 8, 16384)
	if err := a.Place(Placement{ID: 1, Cores: 1, MemMB: 1}); err != nil {
		t.Fatal(err)
	}
	a.SetHealthy(false)
	if rep := a.Report(); rep.Healthy || rep.UsedCores != 1 {
		t.Fatalf("unhealthy flip dropped state: %+v", rep)
	}
	a.SetHealthy(true)
	if !a.Healthy() {
		t.Fatal("not healthy after flip back")
	}
}

// The published-report version moves exactly when Report could return
// something else — every mutation — and stands still otherwise; Header is
// Report without its slices, at that version.
func TestVersionAndHeaderFollowThePublishedReport(t *testing.T) {
	a := New("node0", 8, 16384)
	last := a.Version()
	step := func(what string, wantMove bool, fn func()) {
		t.Helper()
		before := a.Report()
		fn()
		v := a.Version()
		if moved := v != last; moved != wantMove {
			t.Fatalf("%s: version moved = %v, want %v", what, moved, wantMove)
		}
		if !wantMove && !reflect.DeepEqual(a.Report(), before) {
			t.Fatalf("%s: report changed under an unmoved version: %+v, was %+v", what, a.Report(), before)
		}
		last = v
		rep, h := a.Report(), a.Header()
		want := Header{
			Incarnation: rep.Incarnation, Seq: rep.Seq, Healthy: rep.Healthy,
			UsedCores: rep.UsedCores, UsedMemMB: rep.UsedMemMB, Containers: len(rep.Containers),
			Version: v,
		}
		if h != want {
			t.Fatalf("%s: Header = %+v, Report says %+v", what, h, want)
		}
	}

	step("place", true, func() { _ = a.Place(Placement{ID: 1, Cores: 2, MemMB: 2048}) })
	step("rejected place", false, func() { _ = a.Place(Placement{ID: 1, Cores: 1, MemMB: 1}) })
	step("add replica", true, func() { a.AddReplica("k") })
	step("add replica again", false, func() { a.AddReplica("k") })
	step("unhealthy", true, func() { a.SetHealthy(false) })
	step("unhealthy again", false, func() { a.SetHealthy(false) })
	step("healthy", true, func() { a.SetHealthy(true) })
	step("kill", true, func() { a.Kill(1) })
	step("fail", true, func() { a.Fail() })
	step("fail again", false, func() { a.Fail() })
	step("restore", true, func() { a.Restore() })
	step("kill unknown", false, func() { a.Kill(9) })
	step("drop replica unknown", false, func() { a.DropReplica("missing") })
}
