package executor

import (
	"sort"
	"sync"
	"time"

	"github.com/asap-project/ires/internal/trace"
	"github.com/asap-project/ires/internal/vtime"
)

// CircuitBreaker blacklists engines that keep failing: after Threshold
// consecutive failures an engine is excluded (from replans and from
// speculation targets) for a Cooldown window of virtual time, after which it
// gets a fresh chance. This is the classic YARN-style node/service blacklist
// adapted to engines: a flapping service stops eating retry and replan
// budget while it is down, without being removed permanently.
type CircuitBreaker struct {
	mu    sync.Mutex
	clock *vtime.Clock
	// Threshold is the consecutive-failure count that trips the breaker.
	Threshold int
	// Cooldown is how long a tripped engine stays excluded.
	Cooldown time.Duration
	// Tracer receives trip/reset events; nil discards them.
	Tracer trace.Tracer

	state map[string]*breakerState
}

type breakerState struct {
	consecutive  int
	trippedUntil time.Duration
	tripped      bool
}

// NewCircuitBreaker builds a breaker over the virtual clock. A threshold of
// zero or less disables tripping entirely; cooldown defaults to 120s.
func NewCircuitBreaker(clock *vtime.Clock, threshold int, cooldown time.Duration) *CircuitBreaker {
	if cooldown <= 0 {
		cooldown = 120 * time.Second
	}
	return &CircuitBreaker{
		clock:     clock,
		Threshold: threshold,
		Cooldown:  cooldown,
		state:     make(map[string]*breakerState),
	}
}

func (b *CircuitBreaker) now() time.Duration {
	if b.clock == nil {
		return 0
	}
	return b.clock.Now()
}

// RecordFailure counts a failed attempt against the engine and reports
// whether this failure tripped the breaker.
func (b *CircuitBreaker) RecordFailure(engineName string) bool {
	if b == nil || b.Threshold <= 0 || engineName == "" {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.state[engineName]
	if st == nil {
		st = &breakerState{}
		b.state[engineName] = st
	}
	st.consecutive++
	if st.consecutive >= b.Threshold && !st.tripped {
		st.tripped = true
		st.trippedUntil = b.now() + b.Cooldown
		b.emitLocked(trace.Event{
			Type: trace.EvBreakerTrip, Engine: engineName,
			Fields: map[string]float64{
				"consecutive": float64(st.consecutive),
				"untilSec":    st.trippedUntil.Seconds(),
			},
		})
		return true
	}
	return false
}

// emitLocked stamps the current virtual time and forwards to the tracer; the
// caller holds b.mu.
func (b *CircuitBreaker) emitLocked(ev trace.Event) {
	if b.Tracer == nil {
		return
	}
	b.Tracer.Emit(ev.At(b.now()))
}

// RecordSuccess resets the engine's consecutive-failure count and closes a
// tripped breaker (the engine proved itself healthy again).
func (b *CircuitBreaker) RecordSuccess(engineName string) {
	if b == nil || engineName == "" {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if st := b.state[engineName]; st != nil {
		if st.tripped {
			b.emitLocked(trace.Event{Type: trace.EvBreakerReset, Engine: engineName})
		}
		st.consecutive = 0
		st.tripped = false
	}
}

// Allows reports whether the engine may be used right now. A tripped engine
// becomes usable again once its cooldown elapses (half-open: the next
// failure re-trips immediately since the consecutive count is preserved).
func (b *CircuitBreaker) Allows(engineName string) bool {
	if b == nil || b.Threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.state[engineName]
	if st == nil || !st.tripped {
		return true
	}
	if b.now() >= st.trippedUntil {
		// Cooldown elapsed: half-open. One more failure re-trips.
		st.tripped = false
		st.consecutive = b.Threshold - 1
		if st.consecutive < 0 {
			st.consecutive = 0
		}
		return true
	}
	return false
}

// Tripped lists the currently excluded engines, sorted.
func (b *CircuitBreaker) Tripped() []string {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	now := b.now()
	var out []string
	for name, st := range b.state {
		if st.tripped && now < st.trippedUntil {
			out = append(out, name)
		}
	}
	b.mu.Unlock()
	sort.Strings(out)
	return out
}
