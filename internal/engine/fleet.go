package engine

import (
	"errors"
	"sync"
	"time"
)

// ErrOverloaded is returned by Fleet.Submit under FleetConfig.Shed when
// the home shard and every rebalance target are full: the newest work is
// rejected (shed) rather than queued, so under sustained overload the
// work that is admitted still sees bounded queue wait — the p99 of
// accepted work stays near the no-overload baseline instead of growing
// with the backlog (measured by the B12 table in internal/sim).
var ErrOverloaded = errors.New("engine: overloaded, admission queue full")

// scheduler is one shard's bounded worker pool with admission control.
// Admission has two stages: an admission slot (worker slots plus a
// bounded queue) and a worker slot. The Fleet reserves admission before
// the instance exists — blocking (Admit: backpressure), rejecting
// (TryAdmit: load shedding) or abandoning on a stop signal (AdmitStop) —
// so a shed or drained instance leaves no WAL record, then runs it with
// Go under that reservation. It is the fleet-level counterpart of the
// per-instance program pool (WithConcurrency): that pool parallelizes
// activities inside one instance, this one whole instances.
//
// A scheduler is one-shot: Go until done, then Wait.
type scheduler struct {
	workers chan struct{} // execution slots
	admit   chan struct{} // admission slots: workers + queue bound
	wg      sync.WaitGroup
}

// newScheduler returns a pool of workers execution slots whose admission
// queue holds at most maxQueue tasks beyond the ones executing (workers
// < 1 is treated as 1; maxQueue 0 admits only what can execute).
func newScheduler(workers, maxQueue int) *scheduler {
	if workers < 1 {
		workers = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &scheduler{
		workers: make(chan struct{}, workers),
		admit:   make(chan struct{}, workers+maxQueue),
	}
}

// Admit blocks until an admission slot is free. The reservation is
// consumed by Go or returned with Unadmit.
func (s *scheduler) Admit() { s.admit <- struct{}{} }

// TryAdmit reserves an admission slot without blocking; false means the
// queue is full.
func (s *scheduler) TryAdmit() bool {
	select {
	case s.admit <- struct{}{}:
		return true
	default:
		return false
	}
}

// AdmitStop is Admit that abandons the wait when stop is closed; it
// reports whether admission was granted.
func (s *scheduler) AdmitStop(stop <-chan struct{}) bool {
	select {
	case s.admit <- struct{}{}:
		return true
	case <-stop:
		return false
	}
}

// Unadmit returns an unused admission reservation (the instance's
// creation failed after admission was granted).
func (s *scheduler) Unadmit() { <-s.admit }

// Go runs fn on a pool worker under a reservation previously made with
// Admit, TryAdmit or AdmitStop.
func (s *scheduler) Go(fn func()) {
	s.wg.Add(1)
	go func() {
		s.workers <- struct{}{}
		defer func() {
			<-s.workers
			<-s.admit
			s.wg.Done()
		}()
		fn()
	}()
}

// Wait blocks until every task started with Go has finished.
func (s *scheduler) Wait() { s.wg.Wait() }

// FleetResult aggregates one Fleet.Run.
type FleetResult struct {
	// Launched counts instances admitted to the fleet, whether or not
	// their creation succeeded (Launched == Finished + Failed).
	Launched int
	// Finished counts instances that ran to normal completion.
	Finished int
	// Failed counts launched instances that could not be created (e.g.
	// an input member the process's input container lacks), stopped on an
	// error, or degraded to status "failed".
	Failed int
	// Elapsed is the wall-clock time from first admission to last
	// completion.
	Elapsed time.Duration
	// Instances holds every created instance, in launch order; a launched
	// instance whose creation failed has none.
	Instances []*Instance
	// Shed counts instances rejected at admission (FleetConfig.Shed).
	// They are not part of Launched.
	Shed int
	// Stopped reports that a Stop signal cut admission short; instances
	// never admitted appear in no other count.
	Stopped bool
	// Err is the first instance error observed (nil when Failed == 0).
	Err error
}
