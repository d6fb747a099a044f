package vtime

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestAdvanceAndNow(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("new clock not at zero")
	}
	c.Advance(5 * time.Second)
	if got := c.Now(); got != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", got)
	}
	c.Advance(0)
	if got := c.Now(); got != 5*time.Second {
		t.Fatalf("Advance(0) moved clock: %v", got)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	NewClock().Advance(-time.Second)
}

func TestScheduleFiresInOrder(t *testing.T) {
	c := NewClock()
	var fired []time.Duration
	for _, d := range []time.Duration{30, 10, 20} {
		d := d * time.Second
		c.Schedule(d, func(now time.Duration) {
			if now != d {
				t.Errorf("event at %v fired at %v", d, now)
			}
			fired = append(fired, d)
		})
	}
	c.Advance(25 * time.Second)
	if len(fired) != 2 || fired[0] != 10*time.Second || fired[1] != 20*time.Second {
		t.Fatalf("fired = %v", fired)
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", c.Pending())
	}
	c.Advance(5 * time.Second)
	if len(fired) != 3 || c.Pending() != 0 {
		t.Fatalf("Advance to 30s left events unfired: %v", fired)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		c.Schedule(time.Second, func(time.Duration) { order = append(order, i) })
	}
	c.Advance(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of order: %v", order)
		}
	}
}

func TestCallbackMaySchedule(t *testing.T) {
	c := NewClock()
	var hits int
	c.Schedule(time.Second, func(now time.Duration) {
		hits++
		c.Schedule(now+time.Second, func(time.Duration) { hits++ })
	})
	c.Advance(2 * time.Second)
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after both events fired", c.Pending())
	}
}

func TestPastScheduleFiresAtCurrentInstant(t *testing.T) {
	c := NewClock()
	c.Advance(10 * time.Second)
	var at time.Duration = -1
	c.Schedule(time.Second, func(now time.Duration) { at = now })
	c.Advance(0)
	if at != 10*time.Second {
		t.Fatalf("past event fired at %v, want 10s", at)
	}
}

// Property: events always fire in non-decreasing timestamp order regardless
// of scheduling order.
func TestQuickEventOrdering(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewClock()
		n := r.Intn(50) + 1
		var fired []time.Duration
		for i := 0; i < n; i++ {
			at := time.Duration(r.Intn(1000)) * time.Millisecond
			c.Schedule(at, func(now time.Duration) { fired = append(fired, now) })
		}
		c.Advance(time.Second)
		return len(fired) == n && sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNextEventAt(t *testing.T) {
	c := NewClock()
	if _, ok := c.NextEventAt(); ok {
		t.Fatal("empty clock reported a pending event")
	}
	c.Schedule(30*time.Second, func(time.Duration) {})
	c.Schedule(10*time.Second, func(time.Duration) {})
	at, ok := c.NextEventAt()
	if !ok || at != 10*time.Second {
		t.Fatalf("NextEventAt = %v,%v, want 10s,true", at, ok)
	}
	c.Advance(15 * time.Second)
	at, ok = c.NextEventAt()
	if !ok || at != 30*time.Second {
		t.Fatalf("NextEventAt after advance = %v,%v, want 30s,true", at, ok)
	}
}

// TestNextOnceAtSkipsPeriodicEvents: NextOnceAt reports the earliest event
// Schedule registered, never one Every re-arms, and false once only
// periodic events are left.
func TestNextOnceAtSkipsPeriodicEvents(t *testing.T) {
	c := NewClock()
	c.Every(time.Second, func(time.Duration) {})
	if at, ok := c.NextOnceAt(); ok {
		t.Fatalf("NextOnceAt = %v with only a periodic event", at)
	}
	c.Schedule(5*time.Second, func(time.Duration) {})
	c.Schedule(3*time.Second, func(time.Duration) {})
	if at, ok := c.NextOnceAt(); !ok || at != 3*time.Second {
		t.Fatalf("NextOnceAt = %v, %v; want 3s", at, ok)
	}
	if at, ok := c.NextEventAt(); !ok || at != time.Second {
		t.Fatalf("NextEventAt = %v, %v; want the periodic event at 1s", at, ok)
	}
	c.Advance(4 * time.Second)
	if at, ok := c.NextOnceAt(); !ok || at != 5*time.Second {
		t.Fatalf("NextOnceAt = %v, %v after 4s; want 5s", at, ok)
	}
	c.Advance(time.Second)
	if at, ok := c.NextOnceAt(); ok {
		t.Fatalf("NextOnceAt = %v after every one-shot event fired", at)
	}
}

// TestAfterHoldsTheHorizon: After adds what Seconds accepts, refuses what
// it refuses, and refuses a sum at or past 2^63 ns, which an unchecked add
// would wrap to a negative time. Only a time past the horizon wraps
// ErrHorizon; a NaN or negative offset does not.
func TestAfterHoldsTheHorizon(t *testing.T) {
	if got, err := After(2*time.Second, 1.5); err != nil || got != 3500*time.Millisecond {
		t.Fatalf("After(2s, 1.5) = %v, %v", got, err)
	}
	limit := time.Duration(math.MaxInt64)
	if got, err := After(limit-time.Second, 1); err != nil || got != limit {
		t.Fatalf("After(horizon-1s, 1) = %v, %v; want the last representable time", got, err)
	}
	for _, c := range []struct {
		t       time.Duration
		sec     float64
		horizon bool
	}{
		{limit - time.Second, 1.5, true}, {time.Second, 9.3e9, true}, {0, math.Inf(1), true},
		{0, -1, false}, {0, math.NaN(), false},
	} {
		got, err := After(c.t, c.sec)
		if err == nil {
			t.Errorf("After(%v, %v) = %v; want an error", c.t, c.sec, got)
		} else if errors.Is(err, ErrHorizon) != c.horizon {
			t.Errorf("After(%v, %v): %v; wraps ErrHorizon %v, want %v", c.t, c.sec, err, !c.horizon, c.horizon)
		}
	}
}
