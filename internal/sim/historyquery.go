package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/wal"
)

// aggMatchesRegistry checks the 1:1 mapping between a recorded trail's
// aggregation and the metric registry that instrumented the same run
// live (instance.finished events ↔ engine.instances.finished, and so
// on). It returns the names of the counters that disagree.
func aggMatchesRegistry(a *history.Aggregate, reg *obs.Registry) []string {
	var bad []string
	for _, m := range []struct {
		name string
		agg  int64
		ctr  string
	}{
		{"created", a.Created, "engine.instances.created"},
		{"finished", a.Finished, "engine.instances.finished"},
		{"failed", a.Failed, "engine.instances.failed"},
		{"canceled", a.Canceled, "engine.instances.canceled"},
		{"retries", a.Retries, "engine.program.retries"},
		{"dead paths", a.DeadPaths, "engine.deadpath.eliminations"},
		{"loops", a.Loops, "engine.loops"},
		{"sheds", a.Sheds, "engine.fleet.shed"},
		{"breaker trips", a.BreakerTrips, "engine.breaker.trips"},
		{"rebalances", a.Rebalances, "engine.fleet.rebalanced"},
	} {
		if got := reg.Counter(m.ctr).Value(); m.agg != got {
			bad = append(bad, fmt.Sprintf("%s: trail %d != registry %d", m.name, m.agg, got))
		}
	}
	return bad
}

// continuousEqualsBatch feeds the event stream one event at a time and
// asserts after every single event that the incremental evaluator's
// aggregate equals the batch aggregation of the same prefix — the
// prefix-consistency contract of the continuous query class.
func continuousEqualsBatch(evs []obs.Event) error {
	c := history.NewContinuous()
	for i, ev := range evs {
		c.Feed(history.FromObs(ev))
		batch := history.FromEvents(evs[:i+1]).Aggregate()
		if !reflect.DeepEqual(c.Result(), batch) {
			return fmt.Errorf("prefix %d/%d: continuous %+v != batch %+v", i+1, len(evs), c.Result(), batch)
		}
	}
	return nil
}

// e13Scenario is one E13 workload run: the recorded bus events, the
// per-instance live snapshots captured at every trail boundary, the
// registry that instrumented the run, and a builder that reconstructs
// the workload's engine for replay.
type e13Scenario struct {
	name   string
	evs    []obs.Event
	snaps  map[string][]*engine.InstanceSnapshot
	reg    *obs.Registry
	build  history.Builder
	onDisk *history.Source // nil: query via StateAsOf over in-memory records
	recs   []wal.Record
}

// runE13Single executes one reference workload (single instance over an
// in-memory log) under full observation.
func runE13Single(name string, mk func(opts ...engine.Option) (*engine.Engine, string)) (*e13Scenario, error) {
	s := &e13Scenario{
		name:  name,
		snaps: make(map[string][]*engine.InstanceSnapshot),
		reg:   obs.NewRegistry(),
	}
	bus := obs.NewBus()
	var mu sync.Mutex
	detach := bus.Attach(func(ev obs.Event) {
		mu.Lock()
		s.evs = append(s.evs, ev)
		mu.Unlock()
	})
	defer detach()

	e, proc := mk(
		engine.WithMetrics(s.reg),
		engine.WithBus(bus),
		engine.WithTrailObserver(func(inst *engine.Instance, _ engine.Event) {
			mu.Lock()
			s.snaps[inst.ID()] = append(s.snaps[inst.ID()], inst.Snapshot())
			mu.Unlock()
		}),
	)
	log := &wal.MemLog{}
	inst, err := e.CreateInstance(proc, nil, log)
	if err == nil {
		err = inst.Start()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %v", name, err)
	}
	if !inst.Finished() {
		return nil, fmt.Errorf("%s: instance did not finish", name)
	}
	s.recs = log.Records()
	s.build = func(opts ...engine.Option) (*engine.Engine, error) {
		e, _ := mk(opts...)
		return e, nil
	}
	return s, nil
}

// runE13Fleet executes the travel saga as a 3-shard fleet over a real
// sharded WAL layout under full observation. No checkpointer runs:
// every-boundary time travel needs the full history retained (bounded
// rungs and retention are B16's and E9's subject).
func runE13Fleet(dir string, n int) (*e13Scenario, error) {
	s := &e13Scenario{
		name:  fmt.Sprintf("fleet 3-shard %dx travel", n),
		snaps: make(map[string][]*engine.InstanceSnapshot),
		reg:   obs.NewRegistry(),
	}
	bus := obs.NewBus()
	var mu sync.Mutex
	detach := bus.Attach(func(ev obs.Event) {
		mu.Lock()
		s.evs = append(s.evs, ev)
		mu.Unlock()
	})
	defer detach()

	e, proc := travelWorkload(
		engine.WithMetrics(s.reg),
		engine.WithBus(bus),
		engine.WithTrailObserver(func(inst *engine.Instance, _ engine.Event) {
			mu.Lock()
			s.snaps[inst.ID()] = append(s.snaps[inst.ID()], inst.Snapshot())
			mu.Unlock()
		}),
	)
	f, err := engine.NewFleet(e, engine.FleetConfig{Shards: 3, Dir: dir, Parallel: 2})
	if err != nil {
		return nil, err
	}
	res, err := f.Run(proc, n, nil)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: %v", err)
	}
	if res.Finished != n {
		return nil, fmt.Errorf("fleet: finished %d of %d (failed %d: %v)", res.Finished, n, res.Failed, res.Err)
	}
	s.build = func(opts ...engine.Option) (*engine.Engine, error) {
		e, _ := travelWorkload(opts...)
		return e, nil
	}
	s.onDisk = &history.Source{WAL: dir}
	return s, nil
}

// stateAt answers one as-of-T query for the scenario, through the
// recovery ladder for on-disk layouts or straight from the recorded
// records otherwise.
func (s *e13Scenario) stateAt(id string, k int) (*engine.InstanceSnapshot, int, error) {
	if s.onDisk != nil {
		snap, n, _, err := s.onDisk.StateAt(s.build, id, k)
		return snap, n, err
	}
	return history.StateAsOf(s.build, s.recs, id, k)
}

// RunE13 is the queryable-history soak: both reference workloads (the
// travel saga and the Figure 3 flexible transaction) and a 3-shard
// fleet run under full observation — a metrics registry, an event bus
// feeding the history store, and a trail observer capturing a live
// Instance.Snapshot at every audit-trail boundary. The soak then proves
// the three dynamic query classes against that ground truth:
//
//   - time travel: the as-of-T reconstruction at EVERY boundary of
//     every instance is identical to the live snapshot captured there;
//   - fleet aggregation: the trail aggregation's counts equal the metric
//     registry of the same run exactly (the 1:1 mapping);
//   - continuous queries: the incremental evaluator equals the batch
//     aggregation at every prefix of the stream.
func RunE13() *Report {
	r := &Report{
		ID:      "E13",
		Title:   "queryable history: as-of-T == live snapshot at every boundary; trail agg == metrics; continuous == batch",
		Columns: []string{"scenario", "events", "instances", "as-of queries", "as-of == live", "agg == metrics", "continuous == batch"},
		Pass:    true,
	}
	dir, err := os.MkdirTemp("", "wfbench-e13")
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	defer os.RemoveAll(dir)

	scenarios := make([]*e13Scenario, 0, 3)
	if s, err := runE13Single("travel saga abort@book_car", travelWorkload); err == nil {
		scenarios = append(scenarios, s)
	} else {
		r.Pass, r.Err = false, err
		return r
	}
	if s, err := runE13Single("flexible Fig.3 abort@T6", flexibleWorkload); err == nil {
		scenarios = append(scenarios, s)
	} else {
		r.Pass, r.Err = false, err
		return r
	}
	if s, err := runE13Fleet(filepath.Join(dir, "fleet"), 24); err == nil {
		scenarios = append(scenarios, s)
	} else {
		r.Pass, r.Err = false, err
		return r
	}

	for _, s := range scenarios {
		queries := 0
		asOfOK := true
		for id, lives := range s.snaps {
			for k := 1; k <= len(lives); k++ {
				snap, n, err := s.stateAt(id, k)
				queries++
				if err != nil || n != len(lives) || !snap.Equal(lives[k-1]) {
					asOfOK = false
					r.Err = fmt.Errorf("E13 %s: %s as of %d: err=%v n=%d want %d", s.name, id, k, err, n, len(lives))
				}
			}
		}
		aggBad := aggMatchesRegistry(history.FromEvents(s.evs).Aggregate(), s.reg)
		contErr := continuousEqualsBatch(s.evs)
		if !asOfOK || len(aggBad) > 0 || contErr != nil {
			r.Pass = false
			if r.Err == nil && len(aggBad) > 0 {
				r.Err = fmt.Errorf("E13 %s: agg vs metrics: %v", s.name, aggBad)
			}
			if r.Err == nil {
				r.Err = fmt.Errorf("E13 %s: %v", s.name, contErr)
			}
		}
		r.AddRow(s.name, fmt.Sprint(len(s.evs)), fmt.Sprint(len(s.snaps)), fmt.Sprint(queries),
			yesNo(asOfOK), yesNo(len(aggBad) == 0), yesNo(contErr == nil))
	}
	return r
}

// RunB16 measures what the checkpoint ladder buys a time-travel query on
// a fleet-128 trail: the same "state of the crashed instance as of its
// newest boundary" question answered through the bounded
// checkpoint+tail rung versus the full-history rung. The acceptance
// gate is deterministic — the bounded path must read at least 10x fewer
// records off disk than full-history replay — and the wall-clock
// column shows what that buys (the reported ratio is records read,
// wall time is informational).
func RunB16() *Report {
	r := &Report{
		ID:      "B16",
		Title:   "time travel on a fleet-128 trail: bounded checkpoint+tail rung vs full-history replay",
		Columns: []string{"mode", "rung", "records read", "records replayed", "query wall", "read ratio x"},
		Pass:    true,
	}
	const fleetN = 128
	const chainN = 20
	proc := Chain("b16", chainN)
	recsPerInst := 2*chainN + 2

	root, err := os.MkdirTemp("", "wfbench-b16")
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	defer os.RemoveAll(root)

	build := func(opts ...engine.Option) (*engine.Engine, error) {
		e := engine.New(opts...)
		mustRegister(e, "ok", OKProgram)
		mustRegister(e, "abort", AbortProgram)
		if err := e.RegisterProcess(proc); err != nil {
			return nil, err
		}
		return e, nil
	}

	// run executes fleetN chain instances sequentially over a fresh
	// segmented log in dir, crashing mid-way through the last one so a
	// live instance sits in the tail (the one worth time-traveling into
	// after a crash), checkpointing every 64 appends when ckpt is set.
	// It returns the crashed instance's ID.
	run := func(dir string, ckpt bool) (string, error) {
		return crashedFleet(func() (*engine.Engine, error) { return build() }, proc.Name, dir, fleetN, recsPerInst, ckpt)
	}

	// Full-history trail: no checkpoints exist, so the query must read
	// everything the fleet ever logged.
	dirA := filepath.Join(root, "full")
	idA, err := run(dirA, false)
	if err != nil {
		r.Pass = false
		r.Err = fmt.Errorf("B16 full trail: %w", err)
		return r
	}
	srcA := &history.Source{WAL: dirA, Full: true}
	startA := time.Now()
	snapA, nA, stA, err := srcA.StateAt(build, idA, 0)
	wallA := time.Since(startA)
	if err != nil {
		r.Pass = false
		r.Err = fmt.Errorf("B16 full query: %w", err)
		return r
	}

	// Checkpointed trail: the bounded rung answers from the newest
	// checkpoint plus the segment tail.
	dirB := filepath.Join(root, "ckpt")
	idB, err := run(dirB, true)
	if err != nil {
		r.Pass = false
		r.Err = fmt.Errorf("B16 ckpt trail: %w", err)
		return r
	}
	srcB := &history.Source{WAL: dirB}
	startB := time.Now()
	snapB, nB, stB, err := srcB.StateAt(build, idB, 0)
	wallB := time.Since(startB)
	if err != nil {
		r.Pass = false
		r.Err = fmt.Errorf("B16 bounded query: %w", err)
		return r
	}

	r.AddRow("full history", stA.Rung, fmt.Sprint(stA.RecordsRead), fmt.Sprint(stA.RecordsReplayed), wallA.String(), "1.0")
	ratio := float64(stA.RecordsRead) / float64(max(stB.RecordsRead, 1))
	r.AddRow("checkpoint+tail", stB.Rung, fmt.Sprint(stB.RecordsRead), fmt.Sprint(stB.RecordsReplayed), wallB.String(), fmt.Sprintf("%.1f", ratio))

	// Gates: the bounded rung actually engaged, it read >= 10x less, and
	// both rungs reconstruct the same crashed-instance state (IDs differ
	// across the two runs; the navigational state must not).
	switch {
	case stB.Rung == wal.SourceFullReplay:
		r.Pass = false
		r.Err = fmt.Errorf("B16: bounded query fell back to full replay")
	case ratio < 10:
		r.Pass = false
		r.Err = fmt.Errorf("B16: read ratio %.1fx < 10x (full %d, bounded %d)", ratio, stA.RecordsRead, stB.RecordsRead)
	case snapA.Status != snapB.Status || snapA.TrailLen != snapB.TrailLen || nA != nB ||
		len(snapA.Activities) != len(snapB.Activities):
		r.Pass = false
		r.Err = fmt.Errorf("B16: rungs disagree: full %s/%d (%d boundaries) vs bounded %s/%d (%d)",
			snapA.Status, snapA.TrailLen, nA, snapB.Status, snapB.TrailLen, nB)
	}
	return r
}
