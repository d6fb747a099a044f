package faults

import (
	"errors"
	"testing"
	"time"

	"github.com/asap-project/ires/internal/cluster"
	"github.com/asap-project/ires/internal/engine"
	"github.com/asap-project/ires/internal/vtime"
)

// timeline draws n RunFault verdicts from a fresh schedule and returns the
// boolean fault pattern.
func timeline(seed int64, prob float64, n int) []bool {
	s := New(Config{Seed: seed, Default: Transient{FailProb: prob}})
	out := make([]bool, n)
	for i := range out {
		out[i] = s.RunFault("Spark", "step", 1, 10, 0) != nil
	}
	return out
}

func TestDeterministicTimeline(t *testing.T) {
	a := timeline(42, 0.5, 64)
	b := timeline(42, 0.5, 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := timeline(43, 0.5, 64)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-draw timelines")
	}
}

func TestRunFaultWrapsErrInjected(t *testing.T) {
	s := New(Config{Seed: 1, Default: Transient{FailProb: 1}})
	err := s.RunFault("Spark", "step", 2, 10, 5*time.Second)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if got := s.Stats().Transient; got != 1 {
		t.Fatalf("Transient stat = %d, want 1", got)
	}
}

func TestZeroProbNeverFails(t *testing.T) {
	s := New(Config{Seed: 9})
	for i := 0; i < 100; i++ {
		if err := s.RunFault("Spark", "step", 1, 1000, 0); err != nil {
			t.Fatalf("fault injected with zero probability: %v", err)
		}
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("stats nonzero: %+v", st)
	}
}

// TestMTBFExposure checks the exponential reliability model: with MTBF only,
// long attempts must fail measurably more often than short ones, and
// zero-duration attempts never fail.
func TestMTBFExposure(t *testing.T) {
	count := func(durSec float64) int {
		s := New(Config{Seed: 7, Default: Transient{MTBFSec: 100}})
		n := 0
		for i := 0; i < 500; i++ {
			if s.RunFault("Spark", "step", 1, durSec, 0) != nil {
				n++
			}
		}
		return n
	}
	if n := count(0); n != 0 {
		t.Fatalf("zero-duration attempts failed %d times", n)
	}
	short, long := count(10), count(300)
	// Expected rates: 1-exp(-0.1) ≈ 9.5% vs 1-exp(-3) ≈ 95%.
	if short >= long {
		t.Fatalf("exposure model inverted: short %d/500 >= long %d/500", short, long)
	}
	if long < 400 {
		t.Fatalf("long attempts failed only %d/500, want ~475", long)
	}
}

func TestPerEngineOverride(t *testing.T) {
	s := New(Config{
		Seed:      1,
		Default:   Transient{FailProb: 1},
		PerEngine: map[string]Transient{"Java": {}},
	})
	if err := s.RunFault("Java", "step", 1, 10, 0); err != nil {
		t.Fatalf("override engine failed: %v", err)
	}
	if err := s.RunFault("Spark", "step", 1, 10, 0); err == nil {
		t.Fatal("default engine did not fail at prob 1")
	}
}

func TestStretchFactor(t *testing.T) {
	s := New(Config{Seed: 3, Straggler: Straggler{Prob: 1}})
	if f := s.StretchFactor("Spark", "step", 0); f != 3.0 {
		t.Fatalf("default straggler factor = %v, want 3.0", f)
	}
	if got := s.Stats().Stragglers; got != 1 {
		t.Fatalf("Stragglers stat = %d, want 1", got)
	}
	off := New(Config{Seed: 3})
	if f := off.StretchFactor("Spark", "step", 0); f != 1 {
		t.Fatalf("disabled straggler stretched by %v", f)
	}
}

func TestArmOutageAndCrash(t *testing.T) {
	clock := vtime.NewClock()
	env := engine.NewDefaultEnvironment(1)
	clus := cluster.New(clock, 4, 2, 4096)
	ctrs, err := clus.AllocateIn(nil, 4, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Outages:     []Outage{{Engine: engine.EngineSpark, At: 10 * time.Second}},
		NodeCrashes: []NodeCrash{{Node: "node0", At: 20 * time.Second}},
	})
	if err := s.Arm(clock, env, clus); err != nil {
		t.Fatal(err)
	}
	if err := s.Arm(clock, env, clus); err != nil { // idempotent
		t.Fatal(err)
	}
	if !env.Available(engine.EngineSpark) {
		t.Fatal("outage fired before its time")
	}
	clock.Advance(15 * time.Second)
	if env.Available(engine.EngineSpark) {
		t.Fatal("outage did not fire at 10s")
	}
	lostBefore := 0
	for _, ctr := range ctrs {
		if ctr.Lost() {
			lostBefore++
		}
	}
	if lostBefore != 0 {
		t.Fatalf("%d containers lost before the crash", lostBefore)
	}
	clock.Advance(10 * time.Second)
	lost := 0
	for _, ctr := range ctrs {
		if ctr.Lost() {
			lost++
		}
	}
	if lost != 1 {
		t.Fatalf("crash of node0 invalidated %d containers, want 1", lost)
	}
	st := s.Stats()
	if st.Outages != 1 || st.NodeCrash != 1 {
		t.Fatalf("stats = %+v, want 1 outage and 1 crash", st)
	}
	if err := clus.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestArmErrors(t *testing.T) {
	if err := New(Config{}).Arm(nil, nil, nil); err == nil {
		t.Fatal("Arm accepted a nil clock")
	}
	clock := vtime.NewClock()
	clus := cluster.New(clock, 2, 2, 4096)
	s := New(Config{NodeCrashes: []NodeCrash{{Node: "no-such-node"}}})
	if err := s.Arm(clock, nil, clus); !errors.Is(err, cluster.ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}
