package main

import (
	"strings"
	"testing"
	"time"
)

// parseCrash takes node@seconds with the seconds a virtual time: NaN, the
// infinities, negatives and values past the ~9.22e9 s a time.Duration holds
// are refused, not wrapped to a negative crash time.
func TestParseCrashBounds(t *testing.T) {
	node, at, err := parseCrash("node3@40.5")
	if err != nil || node != "node3" || at != 40500*time.Millisecond {
		t.Fatalf("parseCrash(node3@40.5) = %q, %v, %v", node, at, err)
	}
	for _, arg := range []string{"node1@NaN", "node1@Inf", "node1@-Inf", "node1@1e300", "node1@9.3e9", "node1@-1", "node1@x", "@5", "node1"} {
		if node, at, err := parseCrash(arg); err == nil || !strings.Contains(err.Error(), arg) {
			t.Errorf("parseCrash(%q) = %q, %v, %v; want an error naming the argument", arg, node, at, err)
		}
	}
}
