package sim

import (
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/wal"
)

// bucketIndex locates the decade bucket v falls into; the satellite
// agreement gate is "within one decade bucket".
func bucketIndex(snap obs.HistogramSnapshot, v int64) int {
	for i, b := range snap.Buckets {
		if b.LE == -1 || v <= b.LE {
			return i
		}
	}
	return len(snap.Buckets) - 1
}

// TestPairQuantilesAgreeWithRegistryHistogram runs a single-program
// chain workload and compares the per-program latency quantiles wfquery
// derives from dispatch/finished event pairs against the metric
// registry's engine.program.ns histogram on the same run: the
// observation counts must match exactly, and every quantile must land
// within one decade bucket of the registry's estimate (the pair wall
// time includes dispatch overhead the program timer excludes, so exact
// equality is not the contract — same-decade is). The program takes a
// millisecond so its own duration dominates both timers: over
// sub-microsecond programs one scheduler hiccup between the two clocks
// moves the pair's q99 two decades.
func TestPairQuantilesAgreeWithRegistryHistogram(t *testing.T) {
	const steps = 40
	proc := Chain("lat", steps)
	reg := obs.NewRegistry()
	bus := obs.NewBus()
	var mu sync.Mutex
	var evs []obs.Event
	detach := bus.Attach(func(ev obs.Event) {
		mu.Lock()
		evs = append(evs, ev)
		mu.Unlock()
	})
	defer detach()

	e := engine.New(engine.WithMetrics(reg), engine.WithBus(bus))
	mustRegister(e, "ok", engine.ProgramFunc(func(inv *engine.Invocation) error {
		time.Sleep(time.Millisecond)
		return OKProgram(inv)
	}))
	if err := e.RegisterProcess(proc); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance(proc.Name, nil, wal.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil || !inst.Finished() {
		t.Fatalf("start: %v finished=%v", err, inst.Finished())
	}

	c := history.NewContinuous()
	for _, ev := range evs {
		c.Feed(history.FromObs(ev))
	}
	pair, ok := c.Result().Latency["ok"]
	if !ok {
		t.Fatal("no pair latency for program ok")
	}
	progNs := reg.Histogram("engine.program.ns").SnapshotNow()
	if pair.Count != progNs.Count || pair.Count != steps {
		t.Fatalf("pair count %d, engine.program.ns count %d, want %d", pair.Count, progNs.Count, steps)
	}
	regQ := obs.QuantilesOf(progNs)
	for _, q := range []struct {
		name           string
		pair, registry int64
	}{{"q50", pair.P50, regQ.P50}, {"q95", pair.P95, regQ.P95}, {"q99", pair.P99, regQ.P99}} {
		// Both histograms share the registry's decade buckets.
		pi, ri := bucketIndex(progNs, q.pair), bucketIndex(progNs, q.registry)
		if d := pi - ri; d < -1 || d > 1 {
			t.Errorf("%s: pair bucket %d vs registry bucket %d (pair=%dns registry=%dns) — more than one decade apart",
				q.name, pi, ri, q.pair, q.registry)
		}
	}
}
