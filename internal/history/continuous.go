package history

import (
	"sort"

	"repro/internal/obs"
)

// Aggregate is the result of the fleet-aggregation query class: instance
// outcomes, failure causes, the compensation rate, overload/retry/breaker
// counters, and per-program latency quantiles from dispatch/finished
// event pairs. Counts deliberately mirror the engine's metric registry
// 1:1 (instance.finished events ↔ engine.instances.finished, and so on);
// the E13 soak asserts exact agreement between a recorded run's
// aggregation and the registry that instrumented it live.
type Aggregate struct {
	Events int64 `json:"events"`

	Created  int64 `json:"created"`
	Started  int64 `json:"started"`
	Finished int64 `json:"finished"`
	Failed   int64 `json:"failed"`
	Canceled int64 `json:"canceled"`

	// Causes counts instance.failed events by failure cause.
	Causes map[string]int64 `json:"causes,omitempty"`

	// Compensations counts compensation.entered events; CompensationRate
	// is Compensations / Started (0 when nothing started).
	Compensations    int64   `json:"compensations"`
	CompensationRate float64 `json:"compensation_rate"`

	Retries      int64 `json:"retries"`
	Sheds        int64 `json:"sheds"`
	BreakerTrips int64 `json:"breaker_trips"`
	Rebalances   int64 `json:"rebalances"`
	DeadPaths    int64 `json:"dead_paths"`
	Loops        int64 `json:"loops"`

	// Latency holds per-program quantiles of the dispatch→finished pair
	// wall time (decade-bucket interpolation, the same estimator as the
	// registry's engine.program.ns histogram — see
	// obs.HistogramSnapshot.Quantile).
	Latency map[string]obs.LatencyQuantiles `json:"latency,omitempty"`
}

// Programs returns the programs with latency pairs, sorted.
func (a *Aggregate) Programs() []string {
	out := make([]string, 0, len(a.Latency))
	for p := range a.Latency {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// pairKey identifies one activity execution for dispatch/finished
// pairing.
type pairKey struct {
	inst string
	path string
	iter int
}

// Continuous evaluates the aggregation predicates incrementally — the
// continuous-query engine behind `wfquery tail`, fed one event at a time
// from a live /events SSE stream (or any prefix of a recorded trail).
// Memory is bounded: beyond the fixed counters it holds one decade-bucket
// histogram per distinct program name and one in-flight entry per
// dispatched-but-unfinished activity, and the in-flight table of an
// instance is dropped the moment a terminal instance event arrives — so
// an endless stream of failing instances cannot leak pair state.
// MaxInflight exposes the high-water mark for the bounded-memory tests.
type Continuous struct {
	agg      Aggregate
	causes   map[string]int64
	reg      *obs.Registry
	programs map[string]*obs.Histogram
	// inflight: instance → (pairKey → dispatch At).
	inflight    map[string]map[pairKey]int64
	inflightLen int
	maxInflight int
}

// NewContinuous returns an empty continuous evaluator.
func NewContinuous() *Continuous {
	return &Continuous{
		causes:   make(map[string]int64),
		reg:      obs.NewRegistry(),
		programs: make(map[string]*obs.Histogram),
		inflight: make(map[string]map[pairKey]int64),
	}
}

// Feed evaluates one event.
func (c *Continuous) Feed(ev Event) {
	c.agg.Events++
	switch ev.Kind {
	case obs.EvInstanceCreated:
		c.agg.Created++
	case obs.EvInstanceStarted:
		c.agg.Started++
	case obs.EvInstanceFinished:
		c.agg.Finished++
		c.dropInstance(ev.Instance)
	case obs.EvInstanceFailed:
		c.agg.Failed++
		c.causes[ev.Cause]++
		c.dropInstance(ev.Instance)
	case obs.EvInstanceCanceled:
		c.agg.Canceled++
		c.dropInstance(ev.Instance)
	case obs.EvCompensation:
		c.agg.Compensations++
	case obs.EvActivityRetry:
		c.agg.Retries++
	case obs.EvShardShed:
		c.agg.Sheds++
	case obs.EvBreakerOpen:
		c.agg.BreakerTrips++
	case obs.EvShardRebalance:
		c.agg.Rebalances++
	case obs.EvActivityDeadPath:
		c.agg.DeadPaths++
	case obs.EvActivityLoop:
		c.agg.Loops++
	case obs.EvActivityDispatch:
		m := c.inflight[ev.Instance]
		if m == nil {
			m = make(map[pairKey]int64)
			c.inflight[ev.Instance] = m
		}
		k := pairKey{ev.Instance, ev.Path, ev.Iter}
		if _, dup := m[k]; !dup {
			c.inflightLen++
		}
		m[k] = ev.At
		if c.inflightLen > c.maxInflight {
			c.maxInflight = c.inflightLen
		}
	case obs.EvActivityFinished:
		if ev.Program == "" {
			break
		}
		m := c.inflight[ev.Instance]
		k := pairKey{ev.Instance, ev.Path, ev.Iter}
		at, ok := m[k]
		if !ok {
			break // dispatch fell outside the recorded window (ring wrap)
		}
		delete(m, k)
		c.inflightLen--
		if len(m) == 0 {
			delete(c.inflight, ev.Instance)
		}
		h := c.programs[ev.Program]
		if h == nil {
			h = c.reg.Histogram("pair." + ev.Program)
			c.programs[ev.Program] = h
		}
		h.Observe(ev.At - at)
	}
}

// dropInstance releases all pair state of a terminally-resolved
// instance — the bounded-memory guarantee under failing workloads, where
// the dispatched activity that caused the failure never emits a
// finished event.
func (c *Continuous) dropInstance(inst string) {
	if m, ok := c.inflight[inst]; ok {
		c.inflightLen -= len(m)
		delete(c.inflight, inst)
	}
}

// Inflight reports the current number of unpaired dispatches.
func (c *Continuous) Inflight() int { return c.inflightLen }

// MaxInflight reports the high-water mark of Inflight over the whole feed.
func (c *Continuous) MaxInflight() int { return c.maxInflight }

// Result digests the current state into an Aggregate. It may be called
// after every Feed — an aggregation over a prefix of the stream equals
// the batch aggregation of that prefix (asserted by E13).
func (c *Continuous) Result() *Aggregate {
	a := c.agg // counters copy by value
	if len(c.causes) > 0 {
		a.Causes = make(map[string]int64, len(c.causes))
		for k, v := range c.causes {
			a.Causes[k] = v
		}
	}
	if a.Started > 0 {
		a.CompensationRate = float64(a.Compensations) / float64(a.Started)
	}
	if len(c.programs) > 0 {
		a.Latency = make(map[string]obs.LatencyQuantiles, len(c.programs))
		for p, h := range c.programs {
			a.Latency[p] = obs.QuantilesOf(h.SnapshotNow())
		}
	}
	return &a
}
