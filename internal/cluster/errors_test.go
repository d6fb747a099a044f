package cluster

import (
	"errors"
	"testing"

	"github.com/asap-project/ires/internal/vtime"
)

// The reservation-misuse sentinels must be classifiable with errors.Is —
// callers (the executor's launch path above all) branch on the typed
// errors, never on message substrings. Revoking or releasing a nil, foreign
// or released lease changes nothing.
func TestTypedReservationErrors(t *testing.T) {
	clock := vtime.NewClock()
	c := New(clock, 2, 8, 16384)
	other := New(clock, 2, 8, 16384)

	if got := c.RevokeReservation(nil); got != 0 {
		t.Fatalf("revoke(nil) dropped %d containers", got)
	}
	c.ReleaseReservation(nil)

	// Both clusters number their first lease 1: a foreign revoke or release
	// must touch neither that lease nor this cluster's own lease 1.
	own, err := c.Reserve(1)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Reserve(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocateIn(foreign, 1, 1, 1); !errors.Is(err, ErrForeignReservation) {
		t.Fatalf("AllocateIn(foreign) = %v, want ErrForeignReservation", err)
	}
	if got := c.RevokeReservation(foreign); got != 0 {
		t.Fatalf("revoke(foreign) dropped %d containers", got)
	}
	c.ReleaseReservation(foreign)
	if foreign.Released() || own.Released() || c.ReservedNodes() != 1 || other.ReservedNodes() != 1 {
		t.Fatalf("foreign revoke moved a lease: foreign released %v, own released %v, reserved %d/%d",
			foreign.Released(), own.Released(), c.ReservedNodes(), other.ReservedNodes())
	}
	for _, cl := range []*Cluster{c, other} {
		if err := cl.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	c.ReleaseReservation(own)

	whole, err := c.Reserve(1)
	if err != nil {
		t.Fatal(err)
	}
	c.ReleaseReservation(whole)
	if got := c.RevokeReservation(whole); got != 0 {
		t.Fatalf("revoke(released) dropped %d containers", got)
	}
	// A released-lease allocation keeps wrapping ErrInsufficientResources —
	// the executor parks the step and waits for the suspend signal — while
	// also carrying the typed cause for classification.
	_, err = c.AllocateIn(whole, 1, 1, 1)
	if !errors.Is(err, ErrInsufficientResources) || !errors.Is(err, ErrReleasedReservation) {
		t.Fatalf("AllocateIn(released) = %v, want both ErrInsufficientResources and ErrReleasedReservation", err)
	}
}
