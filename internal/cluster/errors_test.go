package cluster

import (
	"errors"
	"testing"

	"github.com/asap-project/ires/internal/vtime"
)

// The reservation-misuse sentinels must be classifiable with errors.Is —
// callers (the executor's launch path above all) branch on the typed
// errors, never on message substrings.
func TestTypedReservationErrors(t *testing.T) {
	clock := vtime.NewClock()
	c := New(clock, 2, 8, 16384)
	other := New(clock, 2, 8, 16384)

	if _, err := c.GrowReservation(nil, 1); !errors.Is(err, ErrNilReservation) {
		t.Fatalf("grow(nil) = %v, want ErrNilReservation", err)
	}
	if err := c.ResizeSlice(nil, 1, 1); !errors.Is(err, ErrNilReservation) {
		t.Fatalf("resize(nil) = %v, want ErrNilReservation", err)
	}
	if _, err := c.ShrinkReservation(nil, 1); !errors.Is(err, ErrNilReservation) {
		t.Fatalf("shrink(nil) = %v, want ErrNilReservation", err)
	}

	foreign, err := other.Reserve(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.GrowReservation(foreign, 1); !errors.Is(err, ErrForeignReservation) {
		t.Fatalf("grow(foreign) = %v, want ErrForeignReservation", err)
	}
	if err := c.ResizeSlice(foreign, 1, 1); !errors.Is(err, ErrForeignReservation) {
		t.Fatalf("resize(foreign) = %v, want ErrForeignReservation", err)
	}
	if _, err := c.ShrinkReservation(foreign, 1); !errors.Is(err, ErrForeignReservation) {
		t.Fatalf("shrink(foreign) = %v, want ErrForeignReservation", err)
	}
	if _, err := c.AllocateIn(foreign, 1, 1, 1); !errors.Is(err, ErrForeignReservation) {
		t.Fatalf("AllocateIn(foreign) = %v, want ErrForeignReservation", err)
	}

	whole, err := c.Reserve(1)
	if err != nil {
		t.Fatal(err)
	}
	// A lease made by Reserve is the slice that fills the node, so the
	// slice operation has no kind to reject.
	if err := c.ResizeSlice(whole, 1, 1); err != nil {
		t.Fatalf("resize(whole-node) = %v, want nil", err)
	}

	c.ReleaseReservation(whole)
	if _, err := c.GrowReservation(whole, 1); !errors.Is(err, ErrReleasedReservation) {
		t.Fatalf("grow(released) = %v, want ErrReleasedReservation", err)
	}
	// A released-lease allocation keeps wrapping ErrInsufficientResources —
	// the executor parks the step and waits for the suspend signal — while
	// also carrying the typed cause for classification.
	_, err = c.AllocateIn(whole, 1, 1, 1)
	if !errors.Is(err, ErrInsufficientResources) || !errors.Is(err, ErrReleasedReservation) {
		t.Fatalf("AllocateIn(released) = %v, want both ErrInsufficientResources and ErrReleasedReservation", err)
	}
}
