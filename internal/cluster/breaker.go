package cluster

import (
	"sync"
	"time"
)

// Per-peer circuit breaker, the same three-state machine the store runs
// over its disk I/O (internal/store/breaker.go), re-instantiated here
// because each peer is an independent failure domain: one dead node
// must cost the fabric a handful of connection errors, then one cheap
// state check per fetch, never a per-request timeout storm. Peer
// defaults are tighter than the store's (3 failures, 5s cooldown) —
// network failures cluster faster than disk failures, and the penalty
// for a false trip is just one peer skipped.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

var breakerStateNames = [...]string{"closed", "open", "half-open"}

const (
	defaultBreakerThreshold = 3
	defaultBreakerCooldown  = 5 * time.Second
)

type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration

	state       int
	consecutive int
	openedAt    time.Time
	probing     bool

	trips, probes, recoveries int64
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold < 1 {
		threshold = defaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether the next call may go over the wire; an open
// breaker admits one probe after its cooldown.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		b.probes++
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		b.probes++
		return true
	}
}

func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.recoveries++
	}
	b.state = breakerClosed
	b.consecutive = 0
	b.probing = false
}

func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	b.consecutive++
	if b.state == breakerHalfOpen || b.consecutive >= b.threshold {
		if b.state != breakerOpen {
			b.trips++
		}
		b.state = breakerOpen
		b.openedAt = time.Now()
		b.consecutive = 0
	}
}

func (b *breaker) stateName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerStateNames[b.state]
}
