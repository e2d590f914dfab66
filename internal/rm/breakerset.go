package rm

import (
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
)

// BreakerSet builds and tracks one circuit breaker per program name —
// the standard implementation behind engine.WithBreakerFactory. Every
// breaker it creates publishes its state transitions as breaker.* events
// on the bus and maintains the engine.breaker.open gauge (breakers
// currently tripped) and engine.breaker.trips counter; States gives
// /statusz and wftop their per-program state view.
type BreakerSet struct {
	cfg BreakerConfig
	bus *obs.Bus

	mu sync.Mutex
	m  map[string]*Breaker

	open  *obs.Gauge   // engine.breaker.open
	trips *obs.Counter // engine.breaker.trips
}

// NewBreakerSet returns an empty set stamping cfg onto every breaker it
// creates. reg defaults to obs.Default, bus to obs.DefaultBus.
// cfg.OnTransition is overridden by the set's own publication hook.
func NewBreakerSet(cfg BreakerConfig, reg *obs.Registry, bus *obs.Bus) *BreakerSet {
	if reg == nil {
		reg = obs.Default
	}
	if bus == nil {
		bus = obs.DefaultBus
	}
	return &BreakerSet{
		cfg:   cfg,
		bus:   bus,
		m:     make(map[string]*Breaker),
		open:  reg.Gauge("engine.breaker.open"),
		trips: reg.Counter("engine.breaker.trips"),
	}
}

// Factory adapts the set to engine.WithBreakerFactory.
func (s *BreakerSet) Factory() func(program string) engine.Breaker {
	return func(program string) engine.Breaker { return s.For(program) }
}

// For returns the breaker guarding program, creating it on first use.
func (s *BreakerSet) For(program string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.m[program]; ok {
		return b
	}
	cfg := s.cfg
	cfg.OnTransition = func(from, to BreakerState) { s.onTransition(program, from, to) }
	b := newBreaker(cfg)
	s.m[program] = b
	return b
}

// States snapshots every breaker's current state by program name,
// sorted-key iteration friendly (the map is fresh; callers may range or
// marshal it directly).
func (s *BreakerSet) States() map[string]string {
	s.mu.Lock()
	names := make([]string, 0, len(s.m))
	for name := range s.m {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	out := make(map[string]string, len(names))
	for _, name := range names {
		out[name] = s.For(name).State().String()
	}
	return out
}

func (s *BreakerSet) onTransition(program string, from, to BreakerState) {
	var kind string
	switch to {
	case BreakerOpen:
		s.trips.Inc()
		if from == BreakerClosed {
			s.open.Add(1)
		}
		kind = obs.EvBreakerOpen
	case BreakerHalfOpen:
		kind = obs.EvBreakerHalfOpen
	default:
		s.open.Add(-1)
		kind = obs.EvBreakerClose
	}
	if s.bus.Active() {
		s.bus.Publish(obs.Event{Kind: kind, Program: program})
	}
}
