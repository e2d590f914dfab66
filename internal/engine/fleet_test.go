package engine

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/wal"
)

func TestSchedulerBoundsConcurrency(t *testing.T) {
	const workers = 3
	s := NewBoundedScheduler(workers, 0)
	var active, peak atomic.Int64
	var mu sync.Mutex
	bumpPeak := func(n int64) {
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
	}
	done := make(chan struct{})
	for i := 0; i < 20; i++ {
		s.Submit(func() {
			n := active.Add(1)
			bumpPeak(n)
			<-done
			active.Add(-1)
		})
		if i == workers-1 {
			// The pool is saturated: the next Submit must block until a
			// worker frees, which close(done) triggers below.
			go func() {
				close(done)
			}()
		}
	}
	s.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds pool size %d", p, workers)
	}
}

func TestRunFleetAggregates(t *testing.T) {
	reg := obs.NewRegistry()
	e := newTestEngine(t, WithMetrics(reg))
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	const n = 16
	res, err := e.RunFleet(FleetOptions{Process: "Chain", N: n, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != n || res.Finished != n || res.Failed != 0 || res.Err != nil {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Instances) != n {
		t.Fatalf("got %d instances", len(res.Instances))
	}
	for _, inst := range res.Instances {
		if !inst.Finished() {
			t.Fatalf("instance %s not finished", inst.ID())
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["engine.instances.finished"]; got != n {
		t.Fatalf("finished counter = %d, want %d", got, n)
	}
	active := snap.Gauges["engine.fleet.active"]
	if active.Value != 0 || active.Max < 1 || active.Max > 4 {
		t.Fatalf("fleet.active = %+v, want value 0 and 1 <= max <= 4", active)
	}
	if q := snap.Gauges["engine.fleet.queue.depth"]; q.Value != 0 {
		t.Fatalf("fleet.queue.depth = %+v, want drained to 0", q)
	}
}

func TestRunFleetCountsFailures(t *testing.T) {
	e := newTestEngine(t, WithMetrics(obs.NewRegistry()))
	if err := e.RegisterProcess(chainProcess("Boom", "ok", "boom", "ok")); err != nil {
		t.Fatal(err)
	}
	res, err := e.RunFleet(FleetOptions{Process: "Boom", N: 5, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 5 || res.Finished != 0 || res.Failed != 5 {
		t.Fatalf("result = %+v", res)
	}
	if res.Err == nil {
		t.Fatal("no error recorded for a failing fleet")
	}
}

func TestRunFleetValidation(t *testing.T) {
	e := newTestEngine(t, WithMetrics(obs.NewRegistry()))
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunFleet(FleetOptions{Process: "nope", N: 1}); err == nil {
		t.Fatal("unknown process accepted")
	}
	if _, err := e.RunFleet(FleetOptions{Process: "Chain", N: 0}); err == nil {
		t.Fatal("fleet size 0 accepted")
	}
}

// TestRunFleetSharedGroupCommitLog runs a fleet over one shared
// group-commit log (the production shape) and then recovers every
// instance from the interleaved file (full-replay rung) — the full
// round trip: fleet → shared WAL → crash → demultiplex → replay.
func TestRunFleetSharedGroupCommitLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.wal")
	flog, err := wal.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	g := wal.NewGroupCommitLog(flog, wal.GroupWithMetricsRegistry(obs.NewRegistry()))
	e := newTestEngine(t, WithMetrics(obs.NewRegistry()))
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	const n = 12
	res, err := e.RunFleet(FleetOptions{
		Process: "Chain", N: n, Parallel: 4,
		Input: func(i int) map[string]expr.Value { return nil },
		Log:   g,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != n {
		t.Fatalf("finished %d of %d: %v", res.Finished, n, res.Err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := wal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// created + done + 3×(started+activity) per instance.
	if want := n * 8; len(records) != want {
		t.Fatalf("log has %d records, want %d", len(records), want)
	}

	e2 := newTestEngine(t, WithMetrics(obs.NewRegistry()))
	if err := e2.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	insts, err := RecoverAllFromCheckpoint(e2, nil, records, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != n {
		t.Fatalf("recovered %d instances, want %d", len(insts), n)
	}
	for _, inst := range insts {
		if !inst.Finished() {
			t.Fatalf("recovered instance %s not finished", inst.ID())
		}
	}
}

func TestRecoverAllErrors(t *testing.T) {
	e := newTestEngine(t, WithMetrics(obs.NewRegistry()))
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	// A subsequence that does not begin with RecCreated must fail.
	records := []wal.Record{
		{Type: wal.RecStartedActivity, Instance: "i1", Path: "A"},
	}
	if _, err := RecoverAllFromCheckpoint(e, nil, records, nil); err == nil {
		t.Fatal("headless instance subsequence accepted")
	}
	if _, err := RecoverAllFromCheckpoint(e, nil, []wal.Record{{Type: wal.RecCreated}}, nil); err == nil {
		t.Fatal("record without instance ID accepted")
	}
}
