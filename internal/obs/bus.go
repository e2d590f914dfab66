package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event is one typed, structured observability event published on a Bus.
// The engine and the WAL publish events at their instrumentation points
// (the taxonomy is listed in DESIGN.md "Observability"); subscribers tail
// them live (the /events SSE endpoint of cmd/wfrun) and the flight
// recorder retains the last N for post-mortem dumps. Fields are omitted
// from JSON when empty so a JSONL dump stays compact.
type Event struct {
	// Kind is the dotted event type, e.g. "instance.failed" or
	// "wal.flush". Kinds are a stable vocabulary (see the Ev* constants).
	Kind string `json:"kind"`
	// Instance is the process-instance ID, "" for events not tied to one
	// (WAL flushes, segment rotations, checkpoints).
	Instance string `json:"inst,omitempty"`
	// Path and Iter locate the activity execution within the instance,
	// exactly as in the audit trail.
	Path string `json:"path,omitempty"`
	Iter int    `json:"iter,omitempty"`
	// Program is the program name for activity events.
	Program string `json:"prog,omitempty"`
	// Cause carries the failure cause for failure/panic events.
	Cause string `json:"cause,omitempty"`
	// RC is the return code for activity completions.
	RC int64 `json:"rc,omitempty"`
	// N is the event's cardinal payload: batch size for wal.flush, queue
	// depth for fleet transitions, segment index for wal.rotate,
	// checkpoint sequence for wal.checkpoint, attempt number for
	// activity.retry.
	N int64 `json:"n,omitempty"`
	// Shard is the engine-shard index for shard.* events published by a
	// sharded fleet (engine.Fleet); 0 and omitted elsewhere. shard.rebalance
	// reports the target shard here and the home shard in N.
	Shard int `json:"shard,omitempty"`
	// DurNs attributes latency to the phase that ends with this event:
	// queue wait for activity.dispatch, program wall time for
	// activity.finished, backoff for activity.retry, sync time for
	// wal.fsync / wal.flush. 0 when not applicable.
	DurNs int64 `json:"dur_ns,omitempty"`
	// At is a monotonic timestamp in nanoseconds since process start
	// (obs.Now), so event inter-arrival and per-phase latency can be
	// computed live without wall-clock skew.
	At int64 `json:"at_ns"`
}

// epoch anchors the monotonic event clock; epochUnixNano is the wall time
// it was taken at.
var (
	epoch         = time.Now()
	epochUnixNano = epoch.UnixNano()
)

// Now returns the monotonic event timestamp: nanoseconds since process
// start. Differences between two Now values are immune to wall-clock
// adjustments (time.Since uses the runtime's monotonic reading).
func Now() int64 { return time.Since(epoch).Nanoseconds() }

// UnixNano converts a Now timestamp to wall-clock Unix nanoseconds: the
// wall time at process start plus the monotonic time elapsed since. It
// reads no clock, and a step of the wall clock after process start does
// not move it.
func UnixNano(now int64) int64 { return epochUnixNano + now }

// Bus is a lock-cheap publish/subscribe fan-out for Events. Publishing
// never blocks: channel subscribers have bounded queues and a publish
// that finds a queue full drops the event for that subscriber and
// advances an explicit drop counter instead of stalling the engine.
// Synchronous taps (Attach) are invoked inline — the flight recorder
// attaches this way so its ring buffer never misses an event.
//
// The hot path is one atomic load when nothing is attached, and an
// RWMutex read lock plus a non-blocking channel send per subscriber
// otherwise. Subscribe/Unsubscribe/Attach take the write lock and are
// safe to call from any goroutine at any time (see the churn race test).
type Bus struct {
	mu       sync.RWMutex
	subs     []*Subscription
	taps     []*tap
	attached atomic.Int64

	published atomic.Int64
	dropped   atomic.Int64
}

// tap is one synchronous observer.
type tap struct{ fn func(Event) }

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// DefaultBus is the process-wide event bus. The engine publishes here
// unless redirected (engine.WithBus); the WAL's flush/rotate/checkpoint
// events always publish here, mirroring how wal metrics default to
// obs.Default.
var DefaultBus = NewBus()

// Subscription is one bounded-queue bus subscriber. Receive from Events
// and Close when done; a full queue drops events (Drops counts them)
// rather than blocking the publisher.
type Subscription struct {
	ch     chan Event
	drops  atomic.Int64
	closed atomic.Bool
}

// Events is the subscriber's receive channel. It is closed by
// Subscription.Close (never by the bus), so a draining range loop ends
// when the subscriber itself unsubscribes.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Drops reports how many events were dropped because this subscriber's
// queue was full at publish time.
func (s *Subscription) Drops() int64 { return s.drops.Load() }

// Subscribe registers a subscriber with a queue of the given capacity
// (minimum 1). The caller must drain Events faster than the publish rate
// or accept drops.
func (b *Bus) Subscribe(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	s := &Subscription{ch: make(chan Event, buffer)}
	b.mu.Lock()
	b.subs = append(b.subs, s)
	b.mu.Unlock()
	b.attached.Add(1)
	return s
}

// Unsubscribe detaches s and closes its channel. Safe to call while
// publishers are active and idempotent per subscription.
func (b *Bus) Unsubscribe(s *Subscription) {
	if s == nil || !s.closed.CompareAndSwap(false, true) {
		return
	}
	b.mu.Lock()
	for i, cur := range b.subs {
		if cur == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	// Close under the write lock: publishers hold the read lock while
	// sending, so no send can race the close.
	close(s.ch)
	b.mu.Unlock()
	b.attached.Add(-1)
}

// Attach registers a synchronous observer called inline on every publish
// (so it must be fast and must not block — the flight recorder's ring
// insert is the intended shape). The returned function detaches it.
func (b *Bus) Attach(fn func(Event)) (detach func()) {
	t := &tap{fn: fn}
	b.mu.Lock()
	b.taps = append(b.taps, t)
	b.mu.Unlock()
	b.attached.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			b.mu.Lock()
			for i, cur := range b.taps {
				if cur == t {
					b.taps = append(b.taps[:i], b.taps[i+1:]...)
					break
				}
			}
			b.mu.Unlock()
			b.attached.Add(-1)
		})
	}
}

// Publish delivers ev to every attachment. With nothing attached it is a
// single atomic load; it never blocks regardless. A zero At is stamped
// with Now().
func (b *Bus) Publish(ev Event) {
	if b.attached.Load() == 0 {
		return
	}
	if ev.At == 0 {
		ev.At = Now()
	}
	b.mu.RLock()
	for _, t := range b.taps {
		t.fn(ev)
	}
	for _, s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			s.drops.Add(1)
			b.dropped.Add(1)
		}
	}
	b.mu.RUnlock()
	b.published.Add(1)
}

// Active reports whether anything is attached. Publishers that must
// assemble an event (map lookups, string formatting) check this first so
// the idle cost stays one atomic load.
func (b *Bus) Active() bool { return b.attached.Load() > 0 }

// Published reports how many events were delivered to at least one
// attachment (publishes with nothing attached are not counted — they
// cost one atomic load and carry no information).
func (b *Bus) Published() int64 { return b.published.Load() }

// Dropped reports the aggregate events dropped across all subscribers.
func (b *Bus) Dropped() int64 { return b.dropped.Load() }

// Subscribers reports how many channel subscribers are attached.
func (b *Bus) Subscribers() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.subs)
}

// The event taxonomy. Instance lifecycle and activity events are
// published by the engine; wal.* by the log implementations; shard.* by
// engine.Fleet. DESIGN.md "Observability" documents each kind's payload
// fields.
const (
	EvInstanceCreated  = "instance.created"  // CreateInstance returned; Program = template name
	EvInstanceStarted  = "instance.started"  // Start began navigating
	EvInstanceFinished = "instance.finished" // instance ran to completion
	EvInstanceFailed   = "instance.failed"   // instance degraded to failed; Cause set
	EvInstanceCanceled = "instance.canceled" // user intervention

	EvActivityDispatch = "activity.dispatch" // activity left the queue; DurNs = queue wait
	EvActivityFinished = "activity.finished" // completion; RC + DurNs = program wall time
	EvActivityRetry    = "activity.retry"    // transient failure retried; N = attempt, DurNs = backoff
	EvActivityPanic    = "activity.panic"    // program panicked; Cause set
	EvActivityDeadPath = "activity.deadpath" // dead path elimination
	EvActivityLoop     = "activity.loop"     // exit condition false, rescheduled
	EvCompensation     = "compensation.entered"

	EvWalFsync              = "wal.fsync"               // one durable append call; N = records, DurNs = sync time
	EvWalFlush              = "wal.flush"               // group-commit batch flushed; N = records, DurNs = sync time
	EvWalRotate             = "wal.rotate"              // segment sealed; N = sealed index
	EvWalCheckpoint         = "wal.checkpoint"          // checkpoint written; N = sequence, DurNs = write time
	EvWalCheckpointFallback = "wal.checkpoint_fallback" // damaged checkpoint skipped on load
	EvWalFailed             = "wal.failed"              // storage error sealed the log; Cause set

	EvShardEnqueue   = "shard.enqueue"   // instance admitted to a shard; Shard set, N = shard queue depth
	EvShardActive    = "shard.active"    // instance began executing on its shard; Shard set, N = shard active count
	EvShardDone      = "shard.done"      // instance released its shard worker; Shard set, N = shard active count
	EvShardRebalance = "shard.rebalance" // hot home shard spilled an instance; Shard = target, N = home shard
	EvShardShed      = "shard.shed"      // every shard full, work rejected; Shard = home, N = fleet sheds so far

	EvBreakerOpen     = "breaker.open"      // failure rate tripped the breaker; Program set, Cause = last error
	EvBreakerHalfOpen = "breaker.half_open" // cooldown elapsed, probe admitted; Program set
	EvBreakerClose    = "breaker.close"     // probe succeeded, normal flow resumed; Program set
	EvRetryExhausted  = "retry.exhausted"   // retry budget empty, retry forgone; Program set

	EvArchivePut          = "wal.archive.put"           // blob archived and read-back CRC verified; Cause = blob name, N = bytes
	EvArchiveRetry        = "wal.archive.retry"         // archive op failed, will back off and retry; Cause = error, N = consecutive failures
	EvArchiveBreakerOpen  = "wal.archive.breaker_open"  // consecutive archive failures opened the breaker; N = failures
	EvArchiveBreakerClose = "wal.archive.breaker_close" // archive probe succeeded, uploads resumed
	EvArchiveFetch        = "wal.archive.fetch"         // recovery fetched a blob from the archive; Cause = blob name, N = bytes
)
