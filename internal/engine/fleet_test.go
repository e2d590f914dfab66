package engine

import (
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/wal"
)

// runOneShard runs n instances of process on a one-shard fleet — the
// shape of wfrun -n — whose instances all append to log (nil: the fleet's
// own in-memory log). The caller still owns log.
func runOneShard(t *testing.T, e *Engine, cfg FleetConfig, process string, n int, log wal.Log) *FleetResult {
	t.Helper()
	cfg.Shards = 1
	if log != nil {
		cfg.WrapLog = func(int, wal.Log) wal.Log { return log }
	}
	f, err := NewFleet(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := f.Run(process, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFleetRunAggregates(t *testing.T) {
	reg := obs.NewRegistry()
	e := newTestEngine(t, WithMetrics(reg))
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	const n = 16
	res := runOneShard(t, e, FleetConfig{Parallel: 4}, "Chain", n, nil)
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

func TestFleetRunCountsFailures(t *testing.T) {
	e := newTestEngine(t, WithMetrics(obs.NewRegistry()))
	if err := e.RegisterProcess(chainProcess("Boom", "ok", "boom", "ok")); err != nil {
		t.Fatal(err)
	}
	res := runOneShard(t, e, FleetConfig{Parallel: 2}, "Boom", 5, nil)
	if res.Launched != 5 || res.Finished != 0 || res.Failed != 5 {
		t.Fatalf("result = %+v", res)
	}
	if res.Err == nil {
		t.Fatal("no error recorded for a failing fleet")
	}
}

// TestFleetRunCountsCreationFailures pins Launched == Finished + Failed
// when an admitted instance cannot even be created: its input names a
// member the process's input container does not have.
func TestFleetRunCountsCreationFailures(t *testing.T) {
	e := newTestEngine(t, WithMetrics(obs.NewRegistry()))
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(e, FleetConfig{Shards: 1, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := f.Run("Chain", 4, func(i int) map[string]expr.Value {
		if i == 1 {
			return map[string]expr.Value{"NoSuchMember": expr.Int(1)}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 4 || res.Finished != 3 || res.Failed != 1 || res.Err == nil {
		t.Fatalf("result = %+v, want 4 launched = 3 finished + 1 failed", res)
	}
	if res.Launched != res.Finished+res.Failed {
		t.Fatalf("Launched %d != Finished %d + Failed %d", res.Launched, res.Finished, res.Failed)
	}
	if len(res.Instances) != 3 {
		t.Fatalf("got %d instances, want the 3 created", len(res.Instances))
	}
}

func TestFleetRunValidation(t *testing.T) {
	e := newTestEngine(t, WithMetrics(obs.NewRegistry()))
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(e, FleetConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Run("nope", 1, nil); err == nil {
		t.Fatal("unknown process accepted")
	}
	if _, err := f.Run("Chain", 0, nil); err == nil {
		t.Fatal("fleet size 0 accepted")
	}
	if _, err := NewFleet(e, FleetConfig{Shards: 0}); err == nil {
		t.Fatal("zero shards accepted")
	}
}

// TestFleetSharedGroupCommitLog runs a one-shard fleet whose WrapLog hands
// every instance one caller-owned group-commit log (the wfrun -n
// -group-commit shape) and then recovers every instance from the
// interleaved file — the full round trip: fleet → shared WAL → crash →
// demultiplex → replay.
func TestFleetSharedGroupCommitLog(t *testing.T) {
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
	res := runOneShard(t, e, FleetConfig{Parallel: 4}, "Chain", n, g)
	if res.Finished != n {
		t.Fatalf("finished %d of %d: %v", res.Finished, n, res.Err)
	}
	// The fleet closed nothing it did not open: the log still takes appends.
	if err := g.Append(wal.Record{Type: wal.RecCreated, Instance: "probe", Process: "Chain"}); err != nil {
		t.Fatalf("fleet closed the caller's log: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := wal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// created + done + 3×(started+activity) per instance, plus the probe.
	if want := n*8 + 1; len(records) != want {
		t.Fatalf("log has %d records, want %d", len(records), want)
	}
	records = records[:len(records)-1]

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

// Backpressure under cancellation: closing the Stop channel while the
// producer is blocked in admission drains the fleet — in-flight instances
// finish, no new ones are created, and the fleet.queue gauge returns to
// zero.
func TestFleetStopDrains(t *testing.T) {
	reg := obs.NewRegistry()
	e := newTestEngine(t, WithMetrics(reg))
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	if err := e.RegisterProgram("block", ProgramFunc(func(inv *Invocation) error {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(chainProcess("Block", "block", "ok", "ok")); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	resCh := make(chan *FleetResult, 1)
	go func() {
		f, err := NewFleet(e, FleetConfig{Shards: 1, Parallel: 2, Stop: stop})
		if err != nil {
			t.Error(err)
			resCh <- nil
			return
		}
		defer f.Close()
		res, err := f.Run("Block", 1000, nil)
		if err != nil {
			t.Error(err)
		}
		resCh <- res
	}()
	<-started // at least one instance is executing; producer is piling up
	close(stop)
	close(gate)
	res := <-resCh
	if res == nil {
		t.FailNow()
	}
	if !res.Stopped {
		t.Fatal("Stopped = false after drain")
	}
	if res.Launched >= 1000 {
		t.Fatalf("drain admitted the whole fleet (%d)", res.Launched)
	}
	if res.Launched != res.Finished+res.Failed {
		t.Fatalf("accounting broken: %+v", res)
	}
	snap := reg.Snapshot()
	if q := snap.Gauges["engine.fleet.queue.depth"]; q.Value != 0 {
		t.Fatalf("fleet.queue.depth = %+v, want 0 after drain", q)
	}
	if a := snap.Gauges["engine.fleet.active"]; a.Value != 0 {
		t.Fatalf("fleet.active = %+v, want 0 after drain", a)
	}
}

// Load shedding on a one-shard fleet: rejected instances are counted
// (result, metric, event) and never created — no WAL records.
func TestFleetRunShed(t *testing.T) {
	reg := obs.NewRegistry()
	bus := obs.NewBus()
	e := newTestEngine(t, WithMetrics(reg), WithBus(bus))
	var shedEvents atomic.Int64
	detach := bus.Attach(func(ev obs.Event) {
		if ev.Kind == obs.EvShardShed {
			shedEvents.Add(1)
		}
	})
	defer detach()
	if err := e.RegisterProgram("slow", ProgramFunc(func(inv *Invocation) error {
		time.Sleep(2 * time.Millisecond)
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(chainProcess("Slow", "slow", "slow", "slow")); err != nil {
		t.Fatal(err)
	}
	const n = 40
	res := runOneShard(t, e, FleetConfig{Parallel: 1, MaxQueue: 0, Shed: true}, "Slow", n, nil)
	if res.Shed == 0 {
		t.Fatal("no instances shed at 0-queue admission with a slow program")
	}
	if res.Shed+res.Launched != n {
		t.Fatalf("accounting broken: shed %d + launched %d != %d", res.Shed, res.Launched, n)
	}
	if res.Failed != 0 {
		t.Fatalf("shed fleet failed instances: %+v", res)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["engine.fleet.shed"]; got != int64(res.Shed) {
		t.Fatalf("fleet.shed counter = %d, want %d", got, res.Shed)
	}
	if got := snap.Counters["engine.instances.created"]; got != int64(res.Launched) {
		t.Fatalf("created counter = %d, want %d (shed instances must not be created)", got, res.Launched)
	}
	if got := shedEvents.Load(); got != int64(res.Shed) {
		t.Fatalf("shard.shed events = %d, want %d", got, res.Shed)
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
