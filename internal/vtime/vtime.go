// Package vtime provides a discrete-event virtual clock.
//
// Every simulated component in the repository (engines, cluster, executor)
// charges time against a Clock rather than sleeping. This keeps experiments
// deterministic and lets a multi-hour "cluster run" finish in microseconds
// of wall time, while preserving the relative performance shapes the paper
// reports.
//
// Goroutines that share a clock cooperate on it as parties (Join): each
// parks until its own next stop, and the clock fires its scheduled events
// one at a time in between, so a party is woken for its own stops only —
// or earlier, when an event Interrupts the clock.
package vtime

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Clock is a discrete-event virtual clock. The zero value is not usable;
// construct with NewClock. Clock is safe for concurrent use.
type Clock struct {
	mu     sync.Mutex
	now    time.Duration
	events eventHeap
	seq    int64

	// Cooperative-party state (see Join). parties counts registered
	// parties; waiters holds the parked ones. started gates dispatch so a
	// batch of Join calls can complete before any party runs.
	parties     int
	partySeq    int64
	waiters     []*Party
	started     bool
	dispatching bool
}

// Party is one cooperating goroutine multiplexed over a shared Clock.
//
// The cooperation protocol makes concurrent executors deterministic: at most
// one party executes at any moment. A party runs until it parks at its own
// next stop via WaitUntil; only when every registered party is parked does
// the clock move. It fires the scheduled events due at or before the
// earliest wake time one at a time, and after each looks again for the
// earliest waiter, since an event may Interrupt the clock (pulling every
// future wake time back to the event's instant) or Join a new party. Then exactly one
// party (smallest wake time, registration order as tiebreak) resumes.
// Goroutines are real, so the race detector still validates the locking,
// but the interleaving is a pure function of the virtual-time schedule,
// never of OS scheduling.
type Party struct {
	c    *Clock
	id   int64
	wake chan struct{}
	// at is the wake time while the party is parked in c.waiters, which
	// holds it at most once: a party is either running or parked. Guarded
	// by c.mu.
	at time.Duration
}

// Join registers a new party, parked at the current virtual time. The party
// does not run until it is dispatched: the caller must hand the returned
// Party to a goroutine whose first act is Await. Dispatch begins when Kick
// is called (or a running party blocks) and all registered parties are
// parked — so a batch of Joins is deterministic regardless of when the
// parties' goroutines actually start.
func (c *Clock) Join() *Party {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.parties++
	c.partySeq++
	p := &Party{c: c, id: c.partySeq, wake: make(chan struct{}, 1), at: c.now}
	c.waiters = append(c.waiters, p)
	return p
}

// Await blocks until the party is first dispatched. It must be the party
// goroutine's first interaction with the clock.
func (p *Party) Await() {
	<-p.wake
}

// WaitUntil blocks the party until virtual time t. If t is not in the
// future it fires the events due at the current instant and returns without
// yielding the execution token. Otherwise the party parks until t, or until
// an event Interrupts the clock: a caller woken early finds Now() < t.
func (p *Party) WaitUntil(t time.Duration) {
	c := p.c
	c.mu.Lock()
	if t <= c.now {
		// Zero-length advance: fire events already due at this instant
		// (Schedule clamps past times to now) while keeping the token.
		c.advanceLocked(c.now)
		c.mu.Unlock()
		return
	}
	p.at = t
	c.waiters = append(c.waiters, p)
	c.dispatchLocked()
	c.mu.Unlock()
	<-p.wake
}

// Leave deregisters the party. The party must be running (not parked); its
// departure may unblock the remaining parties.
func (p *Party) Leave() {
	c := p.c
	c.mu.Lock()
	c.parties--
	c.dispatchLocked()
	c.mu.Unlock()
}

// Interrupt moves the wake time of every party parked in the future back to
// the current instant: each resumes once the events due now have fired, in
// (time, registration order) turn with the rest. Running, departed and
// just-joined parties are untouched. A monitor poll that notices a health
// change uses it to wake runs early, so they look at the change now.
func (c *Clock) Interrupt() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.waiters {
		if w.at > c.now {
			w.at = c.now
		}
	}
}

// Kick starts (or resumes) cooperative dispatch: if every registered party
// is parked, the earliest waiter is woken. Callers use it after a batch of
// Join calls, and whenever an external waiter (Run.Wait, Drain) needs the
// party system to make progress.
func (c *Clock) Kick() {
	c.mu.Lock()
	c.started = true
	c.dispatchLocked()
	c.mu.Unlock()
}

// Parties reports the number of registered cooperative parties.
func (c *Clock) Parties() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parties
}

// dispatchLocked wakes the earliest parked party when every party is
// parked. Events due at or before that party's wake time fire first, one at
// a time: a callback may Interrupt the clock or Join a party, so the earliest
// waiter is picked again after each. Caller holds c.mu.
func (c *Clock) dispatchLocked() {
	// fireLocked releases the lock around callbacks; a concurrent Kick must
	// not start a second dispatch in that window.
	if c.dispatching {
		return
	}
	c.dispatching = true
	defer func() { c.dispatching = false }()
	for c.started && c.parties > 0 && len(c.waiters) >= c.parties {
		// Earliest wake time; registration order as tiebreak.
		best := 0
		for i := 1; i < len(c.waiters); i++ {
			w, b := c.waiters[i], c.waiters[best]
			if w.at < b.at || (w.at == b.at && w.id < b.id) {
				best = i
			}
		}
		w := c.waiters[best]
		if len(c.events) > 0 && c.events[0].at <= w.at {
			c.fireLocked()
			continue
		}
		if w.at > c.now {
			c.now = w.at
		}
		c.waiters = append(c.waiters[:best], c.waiters[best+1:]...)
		w.wake <- struct{}{}
		return
	}
}

// NewClock returns a clock positioned at virtual time zero.
func NewClock() *Clock {
	return &Clock{}
}

// Seconds converts a count of seconds to a virtual time. It refuses NaN,
// the infinities, negatives and anything at or past the 2^63 ns (about
// 9.22e9 s) a time.Duration holds, which an unchecked conversion would wrap
// to a negative value.
func Seconds(sec float64) (time.Duration, error) {
	ns := sec * float64(time.Second)
	// NaN fails both comparisons, -Inf the first and +Inf the second.
	if !(ns >= 0 && ns < float64(math.MaxInt64)) {
		return 0, fmt.Errorf("%v is not a virtual time: want a finite number of seconds in [0, %.0f)",
			sec, float64(math.MaxInt64)/float64(time.Second))
	}
	return time.Duration(ns), nil
}

// ErrHorizon is wrapped by the errors of After whose time lies at or past
// the 2^63 ns horizon, as opposed to an offset that is NaN or negative.
var ErrHorizon = errors.New("past the virtual-time horizon")

// After returns the virtual time sec seconds after t: Seconds(sec) added to
// t, with the sum held to the same 2^63 ns horizon, where an unchecked add
// would wrap to a negative time.
func After(t time.Duration, sec float64) (time.Duration, error) {
	d, err := Seconds(sec)
	if err != nil {
		if sec > 0 { // +Inf, or past the horizon on its own
			err = fmt.Errorf("%w: %w", ErrHorizon, err)
		}
		return 0, err
	}
	if d > math.MaxInt64-t {
		return 0, fmt.Errorf("%v s after %v is %w of %.0f s",
			sec, t, ErrHorizon, float64(math.MaxInt64)/float64(time.Second))
	}
	return t + d, nil
}

// Now returns the current virtual time as an offset from the simulation
// start.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d, firing any events scheduled within
// the interval in timestamp order. Advance panics if d is negative.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vtime: negative advance %v", d))
	}
	c.mu.Lock()
	c.advanceLocked(c.now + d)
	c.mu.Unlock()
}

// advanceLocked moves the clock to target (>= now), firing due events in
// timestamp order. Caller holds c.mu.
func (c *Clock) advanceLocked(target time.Duration) {
	for len(c.events) > 0 && c.events[0].at <= target {
		c.fireLocked()
	}
	if target > c.now {
		c.now = target
	}
}

// fireLocked pops the earliest event, moves the clock to its time and runs
// its callback. Caller holds c.mu; the lock is released around the callback
// so it may schedule further events, read the clock or Interrupt it. A
// periodic event is pushed back once its callback returns, one period from
// the clock's time, with a fresh sequence number: it orders after anything
// the callback scheduled for the same instant.
func (c *Clock) fireLocked() {
	ev := heap.Pop(&c.events).(*event)
	if ev.at > c.now {
		c.now = ev.at
	}
	c.mu.Unlock()
	ev.fn(ev.at)
	c.mu.Lock()
	if ev.every > 0 {
		c.seq++
		ev.at, ev.seq = c.now+ev.every, c.seq
		heap.Push(&c.events, ev)
	}
}

// Schedule registers fn to run when the clock reaches absolute time at.
// Events scheduled for the same instant fire in scheduling order. If at is
// not after the current time, fn fires on the next Advance call (at the
// current instant).
func (c *Clock) Schedule(at time.Duration, fn func(now time.Duration)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if at < c.now {
		at = c.now
	}
	c.seq++
	heap.Push(&c.events, &event{at: at, seq: c.seq, fn: fn})
}

// Every schedules fn to run d from the current virtual time and then every d
// after each run returns, forever: the instants and the order of an fn that
// ends by scheduling itself d from the clock's time, with one event
// allocated for all its runs. Every panics if d is not positive.
func (c *Clock) Every(d time.Duration, fn func(now time.Duration)) {
	if d <= 0 {
		panic(fmt.Sprintf("vtime: non-positive period %v", d))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	heap.Push(&c.events, &event{at: c.now + d, seq: c.seq, fn: fn, every: d})
}

// Pending reports the number of scheduled events that have not yet fired.
func (c *Clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// NextEventAt returns the timestamp of the earliest scheduled event, if any.
// An executor with nothing to run waits for it: a pending restore or outage
// end may unblock it.
func (c *Clock) NextEventAt() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) == 0 {
		return 0, false
	}
	at := c.events[0].at
	if at < c.now {
		at = c.now
	}
	return at, true
}

// NextOnceAt is NextEventAt over the events Schedule registered, leaving
// out the periodic ones Every re-arms forever. A party with nothing to do
// until something outside it changes waits for it: when it reports false,
// only periodic events are left to fire.
func (c *Clock) NextOnceAt() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var at time.Duration
	found := false
	for _, ev := range c.events {
		if ev.every == 0 && (!found || ev.at < at) {
			at, found = ev.at, true
		}
	}
	if at < c.now {
		at = c.now
	}
	return at, found
}

type event struct {
	at    time.Duration
	seq   int64
	fn    func(now time.Duration)
	every time.Duration // > 0: pushed back this long after each run
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
