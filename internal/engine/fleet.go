package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/wal"
)

// ErrOverloaded is returned by TrySubmit when the admission queue is
// full: the newest work is rejected (shed) rather than queued, so under
// sustained overload the work that is admitted still sees bounded queue
// wait — the p99 of accepted work stays near the no-overload baseline
// instead of growing with the backlog (measured by the B12 table in
// internal/sim).
var ErrOverloaded = errors.New("engine: overloaded, admission queue full")

// Scheduler is a bounded worker pool with admission control. Admission
// has two stages: an admission slot (worker slots plus an optional
// bounded queue, see NewBoundedScheduler) and a worker slot. Submit
// blocks for admission — classic backpressure, a producer can never race
// ahead of the pool — while TrySubmit rejects with ErrOverloaded when the
// queue is full (load shedding, reject-newest) and SubmitCtx abandons the
// wait when its context is canceled. It is the fleet-level counterpart of
// the per-instance program pool (WithConcurrency) — that pool
// parallelizes activities inside one instance, the Scheduler parallelizes
// whole instances.
//
// A Scheduler is one-shot: Submit until done, then Wait; submitting
// after Wait has returned is a programming error.
type Scheduler struct {
	workers chan struct{} // execution slots
	admit   chan struct{} // admission slots: workers + queue bound
	wg      sync.WaitGroup
	shed    atomic.Int64
}

// NewBoundedScheduler returns a pool of workers execution slots whose
// admission queue holds at most maxQueue tasks beyond the ones
// executing (workers < 1 is treated as 1; maxQueue 0 admits only what
// can execute). A full queue blocks Submit, rejects TrySubmit with
// ErrOverloaded, and leaves SubmitCtx waiting until space or
// cancellation.
func NewBoundedScheduler(workers, maxQueue int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Scheduler{
		workers: make(chan struct{}, workers),
		admit:   make(chan struct{}, workers+maxQueue),
	}
}

// Admit blocks until an admission slot is free — Submit's backpressure
// as a standalone step, for callers that must reserve admission before
// the task's resources exist (RunFleet reserves before creating the
// instance so a shed instance never logs a WAL record). The reservation
// is consumed by Go or returned with Unadmit.
func (s *Scheduler) Admit() { s.admit <- struct{}{} }

// TryAdmit reserves an admission slot without blocking. false means the
// queue is full; the rejection is counted (Sheds).
func (s *Scheduler) TryAdmit() bool {
	select {
	case s.admit <- struct{}{}:
		return true
	default:
		s.shed.Add(1)
		return false
	}
}

// AdmitStop is Admit that abandons the wait when stop is closed; it
// reports whether admission was granted.
func (s *Scheduler) AdmitStop(stop <-chan struct{}) bool {
	select {
	case s.admit <- struct{}{}:
		return true
	case <-stop:
		return false
	}
}

// Unadmit returns an unused admission reservation (e.g. the task's
// setup failed after TryAdmit succeeded).
func (s *Scheduler) Unadmit() { <-s.admit }

// Go runs fn on a pool worker under a reservation previously made with
// Admit, TryAdmit or AdmitStop.
func (s *Scheduler) Go(fn func()) {
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

// Submit runs fn on a pool worker, blocking until admission is granted —
// the fleet's admission backpressure.
func (s *Scheduler) Submit(fn func()) {
	s.Admit()
	s.Go(fn)
}

// TrySubmit runs fn on a pool worker if an admission slot is free and
// returns ErrOverloaded otherwise — the load-shedding admission path.
func (s *Scheduler) TrySubmit(fn func()) error {
	if !s.TryAdmit() {
		return ErrOverloaded
	}
	s.Go(fn)
	return nil
}

// SubmitCtx is Submit that abandons the admission wait when ctx is
// canceled, returning the context's error; fn is then never started and
// no goroutine leaks.
func (s *Scheduler) SubmitCtx(ctx context.Context, fn func()) error {
	select {
	case s.admit <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.Go(fn)
	return nil
}

// Sheds reports how many submissions were rejected with ErrOverloaded.
func (s *Scheduler) Sheds() int64 { return s.shed.Load() }

// Wait blocks until every submitted task has finished.
func (s *Scheduler) Wait() { s.wg.Wait() }

// FleetOptions configures one RunFleet call.
type FleetOptions struct {
	// Process is the registered process template every instance runs.
	Process string
	// N is the fleet size (number of instances). Must be >= 1.
	N int
	// Parallel bounds how many instances execute at once (default 1).
	Parallel int
	// Input, when non-nil, supplies the input container values for the
	// i-th instance (0-based); nil runs every instance on defaults.
	Input func(i int) map[string]expr.Value
	// Log is the shared navigation log for the whole fleet — typically a
	// *wal.GroupCommitLog so concurrent instances share fsyncs. nil gives
	// each instance its own in-memory log. A shared on-disk log
	// interleaves instances; RecoverAllFromCheckpoint demultiplexes it.
	Log wal.Log
	// MaxQueue bounds the admission queue beyond the Parallel worker
	// slots (0 = no queue). Without Shed a full queue blocks admission
	// (backpressure); with Shed it rejects.
	MaxQueue int
	// Shed enables load shedding: an instance arriving at a full
	// admission queue is rejected (counted in FleetResult.Shed, the
	// engine.fleet.shed counter, and a fleet.shed bus event) instead of
	// waiting. The shed instance is never created, so it leaves no WAL
	// records.
	Shed bool
	// Stop, when non-nil, is a graceful-drain signal: once closed,
	// RunFleet stops admitting new instances — in-flight ones run to
	// completion, the rest are never created — and returns normally.
	Stop <-chan struct{}
}

// FleetResult aggregates one fleet execution.
type FleetResult struct {
	// Launched counts instances actually created (== N unless creation
	// failed mid-fleet).
	Launched int
	// Finished counts instances that ran to normal completion.
	Finished int
	// Failed counts instances that stopped on an error or degraded to
	// status "failed" (Launched == Finished + Failed).
	Failed int
	// Elapsed is the wall-clock time from first admission to last
	// completion.
	Elapsed time.Duration
	// Instances holds every launched instance, in launch order.
	Instances []*Instance
	// Shed counts instances rejected at admission (Shed option). They are
	// not part of Launched.
	Shed int
	// Stopped reports that a Stop signal cut admission short; instances
	// never admitted appear in no other count.
	Stopped bool
	// Err is the first instance error observed (nil when Failed == 0).
	Err error
}

// RunFleet executes a fleet of N instances of one process against a
// bounded Scheduler of Parallel workers and blocks until the whole fleet
// has drained. This is the throughput shape of the paper's Figure 5
// pipeline — "many concurrent instances of an executable template" — as
// one call. Admission has backpressure (never more than Parallel
// instances in flight, at most MaxQueue more waiting) and is observable:
// engine.fleet.queue.depth gauges instances admitted but waiting for a
// worker, engine.fleet.active gauges instances executing,
// engine.fleet.shed counts instances rejected under the Shed policy. A
// Stop channel drains the fleet gracefully (see FleetOptions.Stop).
//
// The returned error reports configuration problems (unknown process,
// bad N); per-instance failures land in FleetResult.Failed / Err with
// the fleet running to completion regardless.
func (e *Engine) RunFleet(opts FleetOptions) (*FleetResult, error) {
	if _, ok := e.Process(opts.Process); !ok {
		return nil, fmt.Errorf("engine: unknown process %q", opts.Process)
	}
	if opts.N < 1 {
		return nil, fmt.Errorf("engine: fleet size %d, want >= 1", opts.N)
	}
	parallel := opts.Parallel
	if parallel < 1 {
		parallel = 1
	}

	sched := NewBoundedScheduler(parallel, opts.MaxQueue)
	res := &FleetResult{Instances: make([]*Instance, 0, opts.N)}
	var resMu sync.Mutex
	start := time.Now()
	for i := 0; i < opts.N; i++ {
		// Admission is reserved before the instance exists: a shed or
		// drained instance must leave no trace (no WAL record, no ID).
		if opts.Stop != nil {
			select {
			case <-opts.Stop:
				res.Stopped = true
			default:
			}
			if res.Stopped {
				break
			}
		}
		if opts.Shed {
			if !sched.TryAdmit() {
				res.Shed++
				e.metrics.fleetShed.Inc()
				if e.bus.Active() {
					e.bus.Publish(obs.Event{Kind: obs.EvFleetShed, N: int64(res.Shed)})
				}
				continue
			}
		} else if opts.Stop != nil {
			if !sched.AdmitStop(opts.Stop) {
				res.Stopped = true
				break
			}
		} else {
			sched.Admit()
		}
		var input map[string]expr.Value
		if opts.Input != nil {
			input = opts.Input(i)
		}
		inst, err := e.CreateInstance(opts.Process, input, opts.Log)
		if err != nil {
			sched.Unadmit()
			resMu.Lock()
			res.Failed++
			if res.Err == nil {
				res.Err = err
			}
			resMu.Unlock()
			continue
		}
		resMu.Lock()
		res.Launched++
		res.Instances = append(res.Instances, inst)
		resMu.Unlock()
		e.metrics.fleetQueue.Add(1)
		if e.bus.Active() {
			e.bus.Publish(obs.Event{Kind: obs.EvFleetEnqueue, Instance: inst.ID(),
				N: e.metrics.fleetQueue.Value()})
		}
		sched.Go(func() {
			e.metrics.fleetQueue.Add(-1)
			e.metrics.fleetActive.Add(1)
			if e.bus.Active() {
				e.bus.Publish(obs.Event{Kind: obs.EvFleetActive, Instance: inst.ID(),
					N: e.metrics.fleetActive.Value()})
			}
			defer func() {
				e.metrics.fleetActive.Add(-1)
				if e.bus.Active() {
					e.bus.Publish(obs.Event{Kind: obs.EvFleetDone, Instance: inst.ID(),
						N: e.metrics.fleetActive.Value()})
				}
			}()
			err := inst.Start()
			if err == nil && inst.Finished() {
				resMu.Lock()
				res.Finished++
				resMu.Unlock()
				return
			}
			if err == nil {
				err = inst.Err()
			}
			if err == nil {
				status, cause := inst.StatusInfo()
				err = fmt.Errorf("engine: instance %s ended %s (%s)", inst.ID(), status, cause)
			}
			resMu.Lock()
			res.Failed++
			if res.Err == nil {
				res.Err = err
			}
			resMu.Unlock()
		})
	}
	sched.Wait()
	res.Elapsed = time.Since(start)
	return res, nil
}
