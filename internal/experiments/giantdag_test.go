package experiments

import "testing"

// TestGiantDAGFlapIdentity is the small-size smoke version of the giant-DAG
// benchmark: the flap-replan byte-identity gate plus the key-scope property
// (a down flip misses only the flap-algorithm node and what lies downstream
// of it, the up flip after it is all hits, and neither evicts).
func TestGiantDAGFlapIdentity(t *testing.T) {
	env, err := NewGiantDAGBench(90, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.VerifyFlap(); err != nil {
		t.Fatal(err)
	}
	cs := env.P.CacheStats()
	if cs.Epoch != 0 || cs.EvictedEntries != 0 || cs.PartialInvalidations != 0 {
		t.Fatalf("flap cycle flushed or evicted: %+v", cs)
	}
	// The flap scope is a constant couple of nodes (mShrink and its mJPEG
	// dependent), not a graph-sized fraction.
	if scope := env.flapScope(); scope == 0 || scope > 4 {
		t.Fatalf("flap scope is %d operators of %d", scope, env.Size)
	}
	if cs.Hits < uint64(env.Size) {
		t.Fatalf("flap replans were not warm: %+v for %d operators", cs, env.Size)
	}
}
