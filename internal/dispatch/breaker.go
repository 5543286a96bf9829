// Circuit breaker for the worker's coordinator calls. A worker facing a
// partitioned or dead coordinator must not hammer the network with
// per-call retry storms: after a run of consecutive failures the
// breaker opens and calls fail fast without touching the wire; after a
// cooldown it half-opens and admits a single probe. The probe's outcome
// decides — success closes the breaker, failure re-opens it for another
// cooldown. The worker keeps polling at its usual cadence either way
// (the coordinator's local fallback guarantees campaign termination
// even if a worker never comes back), so the breaker costs liveness
// nothing; it only converts a retry storm into a quiet wait.
package dispatch

import (
	"errors"
	"sync"
	"time"
)

// Breaker constants.
const (
	// breakerThreshold is the consecutive-failure run that opens the
	// breaker.
	breakerThreshold = 8
	// breakerCooldown is how long an open breaker fails fast before
	// admitting a half-open probe.
	breakerCooldown = 2 * time.Second
)

// ErrBreakerOpen is returned (wrapped) by calls refused while the
// breaker is open: no network traffic happened.
var ErrBreakerOpen = errors.New("dispatch: circuit breaker open")

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a consecutive-failure circuit breaker. The zero value is
// not usable; build one with NewBreaker. Safe for concurrent use (the
// worker's lease loop and heartbeat loop share one).
type Breaker struct {
	mu  sync.Mutex
	now func() time.Time // injected by tests

	state    breakerState
	failures int
	until    time.Time // open until (state == breakerOpen)
	probing  bool      // a half-open probe is in flight
	trips    uint64
}

// NewBreaker builds a closed breaker.
func NewBreaker() *Breaker { return &Breaker{now: time.Now} }

// Allow reports whether a call may go out. Open: false until the
// cooldown elapses, then the breaker half-opens and admits exactly one
// probe; further calls keep failing fast until the probe reports.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Before(b.until) {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success reports a completed call: it closes the breaker and resets
// the failure run.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
}

// Failure reports a failed call: it extends the failure run and opens
// the breaker at the threshold (a failed half-open probe re-opens it
// immediately).
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.probing = false
	if b.state == breakerHalfOpen || b.failures >= breakerThreshold {
		if b.state != breakerOpen {
			b.trips++
		}
		b.state = breakerOpen
		b.until = b.now().Add(breakerCooldown)
	}
}

// Trips reports how many times the breaker has opened.
func (b *Breaker) Trips() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// State returns the breaker's current state name ("closed", "open",
// "half-open"), for logs and tests.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String()
}
