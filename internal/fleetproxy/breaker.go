package fleetproxy

import (
	"sync"
	"time"
)

// BreakerState is one per-backend circuit breaker state. See the package doc
// for the full state machine.
type BreakerState int32

const (
	// BreakerClosed: requests flow; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are rejected without touching the backend until
	// the window elapses.
	BreakerOpen
	// BreakerHalfOpen: trial requests (forwarded traffic or health probes)
	// are admitted; the first success closes the breaker, the first failure
	// re-opens it for another full window.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is a per-backend circuit breaker. It trips open after threshold
// consecutive failures, rejects while open, and transitions to half-open
// once window has elapsed; recovery is probe-driven — the health prober's
// Success (or a successful forwarded trial) closes it.
type breaker struct {
	mu        sync.Mutex
	now       func() time.Time
	window    time.Duration
	threshold int

	state    BreakerState
	failures int // consecutive failures while closed
	openedAt time.Time
}

func newBreaker(window time.Duration, threshold int, now func() time.Time) *breaker {
	if now == nil {
		now = time.Now
	}
	if threshold < 1 {
		threshold = 1
	}
	return &breaker{now: now, window: window, threshold: threshold}
}

// Allow reports whether a request may be sent to the backend, transitioning
// open → half-open when the window has elapsed.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed, BreakerHalfOpen:
		return true
	default: // open
		if b.now().Sub(b.openedAt) >= b.window {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	}
}

// Success records a successful request or health probe: the breaker closes
// (half-open trial passed, or an open breaker's backend was probed healthy)
// and the consecutive-failure count resets.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.failures = 0
}

// Failure records a failed request or probe. A half-open trial failure
// re-opens for a full window; the threshold'th consecutive closed-state
// failure trips the breaker open. It reports whether the breaker is open
// once the failure is recorded.
func (b *breaker) Failure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = b.now()
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = b.now()
		}
	}
	return b.state == BreakerOpen
}

// State reports the current state, applying the open → half-open time
// transition so observers never see a stale "open" past the window.
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.window {
		b.state = BreakerHalfOpen
	}
	return b.state
}
