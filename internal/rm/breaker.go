package rm

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrBreakerOpen is returned by Breaker.Allow while the breaker is open:
// the resource manager has been failing at a rate that makes another
// immediate invocation pointless, so callers fail fast (and may retry
// later — the engine treats it as a transient error subject to backoff
// and the retry budget).
var ErrBreakerOpen = errors.New("rm: circuit breaker open")

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState int

// The breaker states.
const (
	// BreakerClosed admits every invocation (normal operation).
	BreakerClosed BreakerState = iota
	// BreakerOpen fails every invocation fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a single probe; its outcome decides between
	// reclosing and reopening.
	BreakerHalfOpen
)

// String names the state as it appears in /statusz and wftop.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// BreakerConfig parameterizes a Breaker. The zero value is usable:
// defaults are filled in by newBreaker.
type BreakerConfig struct {
	// Window is how many recent outcomes the failure rate is computed
	// over (default 10).
	Window int
	// FailureRate opens the breaker when at least MinSamples outcomes
	// are in the window and the failing fraction reaches this threshold
	// (default 0.5).
	FailureRate float64
	// MinSamples is the minimum outcomes in the window before the rate
	// can trip the breaker (default 5) — a single early failure must not
	// open it.
	MinSamples int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (default 100ms).
	Cooldown time.Duration
	// Now is the clock (default time.Now); tests inject a fake for
	// deterministic cooldown expiry.
	Now func() time.Time
	// OnTransition, when non-nil, is called (outside the breaker's lock)
	// after every state change — the engine publishes breaker.* events
	// and maintains gauges from it.
	OnTransition func(from, to BreakerState)
}

// Breaker is a per-resource-manager circuit breaker: closed while the RM
// is healthy, open (failing fast with ErrBreakerOpen) once the recent
// failure rate trips it, half-open after a cooldown to let one probe
// through. It protects the fleet two ways: healthy instances stop
// queueing behind invocations that are doomed to time out, and a
// recovering RM sees one probe instead of a thundering herd.
//
// Allow must be called before an invocation and Record with its outcome
// (infrastructure success/failure — a transactional abort with RC != 0
// is a *successful* invocation and must be recorded as success).
// Breaker is safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	outcomes []bool // ring buffer of recent outcomes, true = failure
	next     int
	filled   int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// newBreaker returns a closed breaker with cfg's unset fields defaulted.
func newBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Window <= 0 {
		cfg.Window = 10
	}
	if cfg.FailureRate <= 0 {
		cfg.FailureRate = 0.5
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 100 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg, outcomes: make([]bool, cfg.Window)}
}

// State reports the current state (advancing open → half-open if the
// cooldown has elapsed, so the report never lags the clock).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	trans, from, to := b.maybeHalfOpenLocked()
	s := b.state
	b.mu.Unlock()
	if trans {
		b.transition(from, to)
	}
	return s
}

// Allow reports whether an invocation may proceed. Closed: always.
// Open: ErrBreakerOpen until the cooldown elapses, at which point the
// breaker turns half-open and admits exactly one probe; further calls
// fail fast until the probe's outcome is recorded.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	trans, from, to := b.maybeHalfOpenLocked()
	var err error
	switch b.state {
	case BreakerClosed:
	case BreakerHalfOpen:
		if b.probing {
			err = ErrBreakerOpen
		} else {
			b.probing = true
		}
	default:
		err = ErrBreakerOpen
	}
	b.mu.Unlock()
	if trans {
		b.transition(from, to)
	}
	return err
}

// Record feeds an invocation's infrastructure outcome back. In the
// half-open state the probe's outcome alone decides: success recloses
// (clearing the window), failure reopens and restarts the cooldown. In
// the closed state a failure can trip the breaker open once the window's
// failure rate reaches the threshold.
func (b *Breaker) Record(failure bool) {
	b.mu.Lock()
	var trans bool
	var from, to BreakerState
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		from = BreakerHalfOpen
		if failure {
			b.state = BreakerOpen
			b.openedAt = b.cfg.Now()
			to = BreakerOpen
		} else {
			b.state = BreakerClosed
			b.filled = 0
			b.next = 0
			to = BreakerClosed
		}
		trans = true
	case BreakerClosed:
		b.outcomes[b.next] = failure
		b.next = (b.next + 1) % len(b.outcomes)
		if b.filled < len(b.outcomes) {
			b.filled++
		}
		if failure && b.tripLocked() {
			b.state = BreakerOpen
			b.openedAt = b.cfg.Now()
			trans, from, to = true, BreakerClosed, BreakerOpen
		}
	default:
		// Outcomes of invocations that were already in flight when the
		// breaker opened carry no new information; drop them.
	}
	b.mu.Unlock()
	if trans {
		b.transition(from, to)
	}
}

// tripLocked evaluates the window's failure rate against the threshold.
func (b *Breaker) tripLocked() bool {
	if b.filled < b.cfg.MinSamples {
		return false
	}
	failures := 0
	for i := 0; i < b.filled; i++ {
		if b.outcomes[i] {
			failures++
		}
	}
	return float64(failures)/float64(b.filled) >= b.cfg.FailureRate
}

// maybeHalfOpenLocked advances open → half-open when the cooldown has
// elapsed, reporting the transition for publication after unlock.
func (b *Breaker) maybeHalfOpenLocked() (trans bool, from, to BreakerState) {
	if b.state == BreakerOpen && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.state = BreakerHalfOpen
		b.probing = false
		return true, BreakerOpen, BreakerHalfOpen
	}
	return false, 0, 0
}

func (b *Breaker) transition(from, to BreakerState) {
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(from, to)
	}
}
