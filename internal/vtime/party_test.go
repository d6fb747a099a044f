package vtime

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// partyLoop runs a party that appends "<name>@<now>" to log at each of its
// wake times, then leaves. The log is guarded by mu because appends happen
// from different goroutines — though never concurrently, which is exactly
// what the -race run validates.
func partyLoop(c *Clock, p *Party, name string, wakes []time.Duration, mu *sync.Mutex, log *[]string, wg *sync.WaitGroup) {
	go func() {
		defer wg.Done()
		p.Await()
		for _, t := range wakes {
			mu.Lock()
			*log = append(*log, fmt.Sprintf("%s@%v", name, c.Now()))
			mu.Unlock()
			p.WaitUntil(t)
		}
		mu.Lock()
		*log = append(*log, fmt.Sprintf("%s@%v", name, c.Now()))
		mu.Unlock()
		p.Leave()
	}()
}

// Parties wake in (time, registration order) priority, one at a time, and
// the schedule is a pure function of the wake times.
func TestPartyWakeOrdering(t *testing.T) {
	run := func() string {
		c := NewClock()
		var (
			mu  sync.Mutex
			log []string
			wg  sync.WaitGroup
		)
		wg.Add(3)
		// a and b contend at t=10 (a registered first, wins the tiebreak);
		// c2 sleeps past both.
		pa := c.Join()
		pb := c.Join()
		pc := c.Join()
		partyLoop(c, pa, "a", []time.Duration{10, 30}, &mu, &log, &wg)
		partyLoop(c, pb, "b", []time.Duration{10, 20}, &mu, &log, &wg)
		partyLoop(c, pc, "c", []time.Duration{40}, &mu, &log, &wg)
		c.Kick()
		wg.Wait()
		return strings.Join(log, " ")
	}
	want := "a@0s b@0s c@0s a@10ns b@10ns b@20ns a@30ns c@40ns"
	for i := 0; i < 20; i++ {
		if got := run(); got != want {
			t.Fatalf("iteration %d: wake order = %q, want %q", i, got, want)
		}
	}
}

// No party runs before Kick, no matter how long the goroutines have been
// scheduled: Join parks without dispatching.
func TestPartyJoinParksUntilKick(t *testing.T) {
	c := NewClock()
	p := c.Join()
	ran := make(chan struct{})
	go func() {
		p.Await()
		close(ran)
		p.Leave()
	}()
	select {
	case <-ran:
		t.Fatal("party ran before Kick")
	case <-time.After(10 * time.Millisecond):
	}
	c.Kick()
	<-ran
}

// WaitUntil with a non-future time keeps the execution token but still fires
// events due at the current instant (Schedule clamps past times to now).
func TestPartyWaitUntilAtNow(t *testing.T) {
	c := NewClock()
	p := c.Join()
	fired := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Await()
		c.Schedule(0, func(time.Duration) { fired = true })
		p.WaitUntil(c.Now()) // must not block: p is the only party
		if !fired {
			t.Error("due event not fired by zero-length WaitUntil")
		}
		p.Leave()
	}()
	c.Kick()
	<-done
}

// The clock advances only when every party is parked, and scheduled events
// fire (in order) on the way to the earliest wake time.
func TestPartyAdvanceFiresScheduledEvents(t *testing.T) {
	c := NewClock()
	var (
		mu  sync.Mutex
		log []string
	)
	c.Schedule(5, func(now time.Duration) {
		mu.Lock()
		log = append(log, fmt.Sprintf("ev@%v", now))
		mu.Unlock()
	})
	p := c.Join()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Await()
		p.WaitUntil(10)
		mu.Lock()
		log = append(log, fmt.Sprintf("party@%v", c.Now()))
		mu.Unlock()
		p.Leave()
	}()
	c.Kick()
	<-done
	got := strings.Join(log, " ")
	if want := "ev@5ns party@10ns"; got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
}

// A leaving party unblocks the rest: the remaining minimum wake time wins.
func TestPartyLeaveUnblocksRemaining(t *testing.T) {
	c := NewClock()
	pa := c.Join()
	pb := c.Join()
	done := make(chan struct{})
	go func() {
		pa.Await()
		pa.Leave() // departs immediately; b must still be dispatched
	}()
	go func() {
		defer close(done)
		pb.Await()
		pb.WaitUntil(100)
		pb.Leave()
	}()
	c.Kick()
	<-done
	if now := c.Now(); now != 100 {
		t.Fatalf("clock at %v after drain, want 100ns", now)
	}
	if c.Parties() != 0 {
		t.Fatalf("parties = %d after all left", c.Parties())
	}
}

// Joins from a running party (as the scheduler admits successor runs) take
// effect before the joiner parks again, and the new party is dispatched in
// time order with the rest. Run with -race.
func TestPartyDynamicJoin(t *testing.T) {
	c := NewClock()
	var (
		mu  sync.Mutex
		log []string
		wg  sync.WaitGroup
	)
	wg.Add(2)
	pa := c.Join()
	go func() {
		defer wg.Done()
		pa.Await()
		// Spawn a second party mid-run; it must not execute until a parks.
		pb := c.Join()
		partyLoop(c, pb, "b", []time.Duration{15}, &mu, &log, &wg)
		mu.Lock()
		log = append(log, fmt.Sprintf("a@%v", c.Now()))
		mu.Unlock()
		p := pa
		p.WaitUntil(20)
		mu.Lock()
		log = append(log, fmt.Sprintf("a@%v", c.Now()))
		mu.Unlock()
		p.Leave()
	}()
	c.Kick()
	wg.Wait()
	got := strings.Join(log, " ")
	if want := "a@0s b@0s b@15ns a@20ns"; got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
}

// Hammering Kick from many goroutines while parties cooperate must neither
// race nor wake two parties at once. Run with -race.
func TestPartyConcurrentKick(t *testing.T) {
	c := NewClock()
	const parties = 4
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		running int
		maxSeen int
	)
	wg.Add(parties)
	for i := 0; i < parties; i++ {
		p := c.Join()
		step := time.Duration(i + 1)
		go func() {
			defer wg.Done()
			p.Await()
			for k := 1; k <= 50; k++ {
				mu.Lock()
				running++
				if running > maxSeen {
					maxSeen = running
				}
				mu.Unlock()
				mu.Lock()
				running--
				mu.Unlock()
				p.WaitUntil(c.Now() + step)
			}
			p.Leave()
		}()
	}
	stop := make(chan struct{})
	var kickers sync.WaitGroup
	for i := 0; i < 3; i++ {
		kickers.Add(1)
		go func() {
			defer kickers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Kick()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	kickers.Wait()
	if maxSeen != 1 {
		t.Fatalf("observed %d parties running concurrently, want exactly 1", maxSeen)
	}
}

// An event that interrupts the clock wakes a party parked in the future at
// the event's instant, after every other event due then has fired.
func TestPartyInterruptWakesAtEventInstant(t *testing.T) {
	c := NewClock()
	p := c.Join()
	var log []string
	c.Schedule(30, func(now time.Duration) {
		log = append(log, fmt.Sprintf("interrupt@%v", now))
		c.Interrupt()
	})
	c.Schedule(30, func(now time.Duration) { log = append(log, fmt.Sprintf("ev@%v", now)) })
	c.Schedule(60, func(now time.Duration) { log = append(log, fmt.Sprintf("late@%v", now)) })
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Await()
		p.WaitUntil(100)
		log = append(log, fmt.Sprintf("party@%v", c.Now()))
		p.WaitUntil(100)
		log = append(log, fmt.Sprintf("party@%v", c.Now()))
		p.Leave()
	}()
	c.Kick()
	<-done
	got := strings.Join(log, " ")
	if want := "interrupt@30ns ev@30ns party@30ns late@60ns party@100ns"; got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
}

// Parties interrupted at one instant resume in registration order, whatever
// their wake times were.
func TestPartyInterruptedResumeInIDOrder(t *testing.T) {
	c := NewClock()
	var (
		mu  sync.Mutex
		log []string
		wg  sync.WaitGroup
	)
	pa, pb := c.Join(), c.Join()
	c.Schedule(30, func(time.Duration) { c.Interrupt() })
	wg.Add(2)
	for _, x := range []struct {
		p    *Party
		name string
		at   time.Duration
	}{{pa, "a", 100}, {pb, "b", 80}} {
		x := x
		go func() {
			defer wg.Done()
			x.p.Await()
			x.p.WaitUntil(x.at)
			mu.Lock()
			log = append(log, fmt.Sprintf("%s@%v", x.name, c.Now()))
			mu.Unlock()
			x.p.Leave()
		}()
	}
	c.Kick()
	wg.Wait()
	if got, want := strings.Join(log, " "), "a@30ns b@30ns"; got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
}

// One interrupt pulls back every party parked in the future, whatever its
// wake time, and leaves a party already due at the instant where it was. A
// party woken early that parks again for its own stop sleeps until it.
func TestClockInterruptWakesEveryFuturePark(t *testing.T) {
	c := NewClock()
	var (
		mu  sync.Mutex
		log []string
		wg  sync.WaitGroup
	)
	record := func(s string) {
		mu.Lock()
		log = append(log, s)
		mu.Unlock()
	}
	c.Schedule(30, func(time.Duration) { c.Interrupt() })
	c.Schedule(40, func(now time.Duration) { record(fmt.Sprintf("ev@%v", now)) })
	parties := []struct {
		p    *Party
		name string
		at   time.Duration
	}{{c.Join(), "a", 100}, {c.Join(), "b", 60}, {c.Join(), "c", 30}}
	wg.Add(len(parties))
	for _, x := range parties {
		x := x
		go func() {
			defer wg.Done()
			x.p.Await()
			for c.Now() < x.at {
				x.p.WaitUntil(x.at)
				record(fmt.Sprintf("%s@%v", x.name, c.Now()))
			}
			x.p.Leave()
		}()
	}
	c.Kick()
	wg.Wait()
	if got, want := strings.Join(log, " "), "a@30ns b@30ns c@30ns ev@40ns b@60ns a@100ns"; got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
}

// Interrupt moves nothing when no party is parked in the future: not the
// running caller (it still sleeps until its own wake time), not a departed
// party, not one parked at the current instant.
func TestPartyInterruptOnlyMovesParkedFutureWakes(t *testing.T) {
	c := NewClock()
	p := c.Join()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Await()
		c.Interrupt() // the caller is running: nothing to move
		p.WaitUntil(50)
		if now := c.Now(); now != 50 {
			t.Errorf("running party's own interrupt woke it at %v, want 50ns", now)
		}
		p.Leave()
	}()
	c.Kick()
	<-done
	c.Interrupt() // the party departed
	if c.Parties() != 0 || c.Now() != 50 {
		t.Fatalf("interrupting with no party changed the clock: parties %d, now %v", c.Parties(), c.Now())
	}

	q := c.Join() // parked at the current instant
	c.Interrupt()
	c.Kick()
	q.Await()
	if now := c.Now(); now != 50 {
		t.Fatalf("party joined at 50ns woke at %v", now)
	}
	q.Leave()
}

// A party that an event callback joins wakes at its join time, before later
// events fire, even when every other party sleeps past them.
func TestPartyJoinedByCallbackWakesAtJoinTime(t *testing.T) {
	c := NewClock()
	var (
		mu  sync.Mutex
		log []string
		wg  sync.WaitGroup
	)
	record := func(s string) {
		mu.Lock()
		log = append(log, s)
		mu.Unlock()
	}
	wg.Add(2)
	pa := c.Join()
	go func() {
		defer wg.Done()
		pa.Await()
		pa.WaitUntil(100)
		record(fmt.Sprintf("a@%v", c.Now()))
		pa.Leave()
	}()
	c.Schedule(20, func(time.Duration) {
		pb := c.Join()
		go func() {
			defer wg.Done()
			pb.Await()
			record(fmt.Sprintf("b@%v", c.Now()))
			pb.Leave()
		}()
	})
	c.Schedule(40, func(now time.Duration) { record(fmt.Sprintf("ev@%v", now)) })
	c.Kick()
	wg.Wait()
	if got, want := strings.Join(log, " "), "b@20ns ev@40ns a@100ns"; got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
}

// everyLog drives a clock through a period-10s tick that arm sets up, with
// one-shot events scheduled before it is armed, after, and inside the ticks
// (at the tick's own instant and at the next tick's), an Interrupt in every
// third tick and a party parked across them, then advances the clock with no
// party registered. It returns what fired, and when the party woke.
func everyLog(arm func(c *Clock, d time.Duration, fn func(time.Duration))) []string {
	c := NewClock()
	var mu sync.Mutex
	var log []string
	logf := func(format string, args ...any) {
		mu.Lock()
		log = append(log, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	const d = 10 * time.Second
	for _, at := range []time.Duration{10 * time.Second, 20 * time.Second} {
		c.Schedule(at, func(now time.Duration) { logf("before@%v", now) })
	}
	ticks := 0
	arm(c, d, func(now time.Duration) {
		ticks++
		logf("tick%d@%v", ticks, now)
		if ticks%2 == 0 {
			c.Schedule(now, func(now time.Duration) { logf("same@%v", now) })
		}
		c.Schedule(now+d, func(now time.Duration) { logf("next@%v", now) })
		if ticks%3 == 0 {
			c.Interrupt()
		}
	})
	c.Schedule(30*time.Second, func(now time.Duration) { logf("after@%v", now) })
	var wg sync.WaitGroup
	wg.Add(1)
	partyLoop(c, c.Join(), "party", []time.Duration{25 * time.Second, 47 * time.Second, 95 * time.Second}, &mu, &log, &wg)
	c.Kick()
	wg.Wait()
	c.Advance(130*time.Second - c.Now())
	logf("pending %d", c.Pending())
	return log
}

// An Every event fires at the instants and in the order of a callback that
// ends by scheduling itself a period from the clock's time, among one-shot
// events and interrupts, under cooperative dispatch and under Advance.
func TestClockEveryMatchesAfterChain(t *testing.T) {
	every := everyLog(func(c *Clock, d time.Duration, fn func(time.Duration)) { c.Every(d, fn) })
	chain := everyLog(func(c *Clock, d time.Duration, fn func(time.Duration)) {
		var tick func(time.Duration)
		tick = func(now time.Duration) {
			fn(now)
			c.Schedule(c.Now()+d, tick)
		}
		c.Schedule(c.Now()+d, tick)
	})
	if got, want := strings.Join(every, " "), strings.Join(chain, " "); got != want {
		t.Fatalf("Every:\n%s\nself-rescheduling chain:\n%s", got, want)
	}
	if !slices.Contains(every, "tick13@2m10s") || !slices.Contains(every, "party@30s") {
		t.Fatalf("the scenario lost its ticks or its interrupt: %v", every)
	}
}

func TestClockEveryPanicsOnNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a zero period")
		}
	}()
	NewClock().Every(0, func(time.Duration) {})
}

// A party parks on the clock's waiter list by itself: parking and being
// woken allocates nothing.
func TestPartyParkAllocatesNothing(t *testing.T) {
	c := NewClock()
	p := c.Join()
	c.Kick()
	p.Await()
	if n := testing.AllocsPerRun(100, func() {
		p.WaitUntil(c.Now() + time.Second)
	}); n != 0 {
		t.Fatalf("%.1f allocations per park, want 0", n)
	}
	if got, want := c.Now(), 101*time.Second; got != want {
		t.Fatalf("clock at %v after 101 parks of 1s, want %v", got, want)
	}
	p.Leave()
}
