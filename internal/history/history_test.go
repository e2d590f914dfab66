package history

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wal"
)

// chainProcess builds A -> B -> C with RC=0 transition conditions.
func chainProcess(name string) *model.Process {
	p := model.NewProcess(name)
	for _, n := range []string{"A", "B", "C"} {
		p.Activities = append(p.Activities, &model.Activity{Name: n, Kind: model.KindProgram, Program: "ok"})
	}
	p.Control = []*model.ControlConnector{
		{From: "A", To: "B", Condition: expr.MustParse("RC = 0")},
		{From: "B", To: "C", Condition: expr.MustParse("RC = 0")},
	}
	return p
}

// buildChain is the test Builder: a fresh engine with the "ok" program
// and the Chain process registered.
func buildChain(opts ...engine.Option) (*engine.Engine, error) {
	e := engine.New(opts...)
	if err := e.RegisterProgram("ok", engine.ProgramFunc(func(inv *engine.Invocation) error {
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		return nil, err
	}
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		return nil, err
	}
	return e, nil
}

func runChain(t *testing.T, id string, log wal.Log, opts ...engine.Option) *engine.Instance {
	t.Helper()
	e, err := buildChain(opts...)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstanceID("Chain", id, nil, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestWriterRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trail.jsonl")
	w, err := NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	w.Attach(bus)
	runChain(t, "wf-1", wal.Discard, engine.WithBus(bus), engine.WithMetrics(obs.NewRegistry()))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Schema != Schema {
		t.Fatalf("schema = %q, want %q", s.Schema, Schema)
	}
	if len(s.Events) == 0 {
		t.Fatal("no events exported")
	}
	for i, ev := range s.Events {
		if ev.Seq != int64(i)+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	agg := s.Aggregate()
	if agg.Started != 1 || agg.Finished != 1 || agg.Failed != 0 {
		t.Fatalf("aggregate = %+v", agg)
	}
	if len(agg.Latency) != 1 || agg.Latency["ok"].Count != 3 {
		t.Fatalf("latency pairs = %+v, want 3 'ok' pairs", agg.Latency)
	}
}

func TestLoadFlightDumpAndBareJSONL(t *testing.T) {
	bus := obs.NewBus()
	rec := obs.NewRecorder(64)
	detach := bus.Attach(rec.Record)
	runChain(t, "wf-1", wal.Discard, engine.WithBus(bus), engine.WithMetrics(obs.NewRegistry()))
	detach()

	// Stamped flight dump.
	dir := t.TempDir()
	flight := filepath.Join(dir, "flight.jsonl")
	if err := rec.DumpFile(flight); err != nil {
		t.Fatal(err)
	}
	s, err := Load(flight)
	if err != nil {
		t.Fatal(err)
	}
	if s.Schema != obs.FlightSchema {
		t.Fatalf("schema = %q, want %q", s.Schema, obs.FlightSchema)
	}
	if got := s.Aggregate().Finished; got != 1 {
		t.Fatalf("finished = %d", got)
	}

	// Bare pre-stamp JSONL (header stripped) still loads.
	raw, err := os.ReadFile(flight)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(raw), "\n", 2)
	bare := filepath.Join(dir, "bare.jsonl")
	if err := os.WriteFile(bare, []byte(lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(bare)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Schema != "" || len(s2.Events) != len(s.Events) {
		t.Fatalf("bare load: schema %q, %d events, want \"\" and %d", s2.Schema, len(s2.Events), len(s.Events))
	}

	// Unknown schema stamps are rejected, not misread.
	alien := filepath.Join(dir, "alien.jsonl")
	if err := os.WriteFile(alien, []byte("{\"schema\":\"history/v99\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(alien); err == nil || !strings.Contains(err.Error(), "unknown schema") {
		t.Fatalf("alien schema accepted: %v", err)
	}
}

// TestContinuousEqualsBatchAtEveryPrefix pins the continuous-query
// contract: Result() after feeding k events equals the batch aggregation
// of the first k events, for every k.
func TestContinuousEqualsBatchAtEveryPrefix(t *testing.T) {
	bus := obs.NewBus()
	rec := obs.NewRecorder(256)
	detach := bus.Attach(rec.Record)
	for _, id := range []string{"wf-1", "wf-2", "wf-3"} {
		runChain(t, id, wal.Discard, engine.WithBus(bus), engine.WithMetrics(obs.NewRegistry()))
	}
	detach()
	s := FromEvents(rec.Events())
	c := NewContinuous()
	for k, ev := range s.Events {
		c.Feed(ev)
		batch := &Store{Events: s.Events[:k+1]}
		if got, want := c.Result(), batch.Aggregate(); !reflect.DeepEqual(got, want) {
			t.Fatalf("prefix %d: continuous %+v != batch %+v", k+1, got, want)
		}
	}
}

// TestContinuousBoundedMemory pins the leak-resistance property: an
// unending stream of instances (including failing ones whose dispatched
// activity never finishes) keeps the in-flight pair table bounded.
func TestContinuousBoundedMemory(t *testing.T) {
	c := NewContinuous()
	for i := 0; i < 1000; i++ {
		inst := "wf"
		c.Feed(Event{Kind: obs.EvInstanceStarted, Instance: inst})
		c.Feed(Event{Kind: obs.EvActivityDispatch, Instance: inst, Path: "A", At: 10})
		// The activity never finishes: the instance fails.
		c.Feed(Event{Kind: obs.EvInstanceFailed, Instance: inst, Cause: "boom"})
	}
	if c.Inflight() != 0 {
		t.Fatalf("inflight = %d after terminal events, want 0", c.Inflight())
	}
	if c.MaxInflight() != 1 {
		t.Fatalf("max inflight = %d, want 1", c.MaxInflight())
	}
	a := c.Result()
	if a.Failed != 1000 || a.Causes["boom"] != 1000 {
		t.Fatalf("aggregate = %+v", a)
	}
}

// TestStateAsOfEveryBoundary is the unit-level time-travel oracle: a
// live chain run records a snapshot at every trail boundary through the
// observer seam; replaying the WAL records with StateAsOf must
// reconstruct each of them exactly. (E13 scales this to the reference
// workloads, a checkpointed segment directory and a 3-shard fleet.)
func TestStateAsOfEveryBoundary(t *testing.T) {
	var oracle []*engine.InstanceSnapshot
	log := &wal.MemLog{}
	runChain(t, "wf-1", log,
		engine.WithMetrics(obs.NewRegistry()),
		engine.WithTrailObserver(func(inst *engine.Instance, ev engine.Event) {
			oracle = append(oracle, inst.Snapshot())
		}))
	if len(oracle) == 0 {
		t.Fatal("no boundaries observed")
	}
	for k := 1; k <= len(oracle); k++ {
		snap, n, err := StateAsOf(buildChain, log.Records(), "wf-1", k)
		if err != nil {
			t.Fatalf("boundary %d: %v", k, err)
		}
		if n != len(oracle) {
			t.Fatalf("boundary %d: replay visited %d boundaries, live run had %d", k, n, len(oracle))
		}
		if !snap.Equal(oracle[k-1]) {
			t.Fatalf("boundary %d: replayed snapshot %+v != live %+v", k, snap, oracle[k-1])
		}
	}
	// k <= 0 returns the newest boundary.
	snap, _, err := StateAsOf(buildChain, log.Records(), "wf-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Equal(oracle[len(oracle)-1]) {
		t.Fatal("newest-boundary query != final live snapshot")
	}
	// Past the recorded history is an error, not a guess.
	if _, _, err := StateAsOf(buildChain, log.Records(), "wf-1", len(oracle)+1); err == nil {
		t.Fatal("boundary past recorded history accepted")
	}
}

// TestSourceCheckpointLadder pins the rung selection of Source.Records:
// an instance live in the newest checkpoint resolves through the bounded
// view (reading checkpoint + tail, not the whole history); an instance
// that finished before the checkpoint needs the full rung; a fresh
// instance born after the cover resolves from the tail alone.
func TestSourceCheckpointLadder(t *testing.T) {
	dir := t.TempDir()
	seg, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	// Two instances finish before the checkpoint; one is created after.
	runChain(t, "wf-done-1", seg, engine.WithMetrics(obs.NewRegistry()))
	runChain(t, "wf-done-2", seg, engine.WithMetrics(obs.NewRegistry()))
	ck := engine.NewCheckpointer(seg, engine.CheckpointDir(dir))
	if err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	runChain(t, "wf-live", seg, engine.WithMetrics(obs.NewRegistry()))
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	src := &Source{WAL: dir}
	// Born after the cover: bounded view suffices.
	recs, st, err := src.Records("wf-live")
	if err != nil {
		t.Fatal(err)
	}
	if st.Rung != wal.SourceNewestCheckpoint {
		t.Fatalf("rung = %q, want %q", st.Rung, wal.SourceNewestCheckpoint)
	}
	snap, _, err := StateAsOf(buildChain, recs, "wf-live", 0)
	if err != nil || snap.Status != "finished" {
		t.Fatalf("live replay: %v, %+v", err, snap)
	}

	// Finished before the checkpoint: full-history rung.
	_, st, err = src.Records("wf-done-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Rung != wal.SourceFullReplay {
		t.Fatalf("done instance rung = %q, want %q", st.Rung, wal.SourceFullReplay)
	}

	// Forced full baseline reads everything.
	full := &Source{WAL: dir, Full: true}
	_, fst, err := full.Records("wf-live")
	if err != nil {
		t.Fatal(err)
	}
	if fst.Rung != wal.SourceFullReplay || fst.RecordsRead < st.RecordsRead {
		t.Fatalf("full baseline stats = %+v", fst)
	}

	// Unknown instances are an error.
	if _, _, err := src.Records("wf-nope"); err == nil {
		t.Fatal("unknown instance accepted")
	}
}

// hashTree maps every file under root to its content.
func hashTree(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestQueryLeavesTheWALAlone: a query must not write. Each shard of a
// 2-shard root holds a finished instance and one that crashed with a torn
// record on disk; StateAt answers for all four — through the bounded view
// and the full scan — and every file under the root is byte-identical
// afterwards, so the crashed run's evidence (and a live run's active
// segment) survives being asked about. Recovery, not the query, truncates.
func TestQueryLeavesTheWALAlone(t *testing.T) {
	root := t.TempDir()
	// write leaves shard s in dir: a finished instance under a checkpoint,
	// then one whose run dies with the file system beneath the durable log
	// at byte b (0: never).
	write := func(dir string, s int, b int64) {
		seg, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(4), wal.SegmentFsync(),
			wal.SegmentFS(wal.NewFaultFS(wal.FaultCrash, b)))
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		runChain(t, "done-"+engine.ShardDirName(s), seg, engine.WithMetrics(obs.NewRegistry()))
		if err := engine.NewCheckpointer(seg).CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		e, err := buildChain(engine.WithMetrics(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		inst, err := e.CreateInstanceID("Chain", "torn-"+engine.ShardDirName(s), nil, seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Start(); (b > 0) != errors.Is(err, wal.ErrCrash) || (b == 0 && err != nil) {
			t.Fatalf("crash at byte %d: got %v", b, err)
		}
	}
	for s := 0; s < 2; s++ {
		// The crash byte, from a crash-free run: three records of the second
		// instance on disk and half of its fourth.
		clean := filepath.Join(t.TempDir(), "clean")
		write(clean, s, 0)
		ends, err := wal.FrameEnds(clean)
		if err != nil || len(ends)%2 != 0 {
			t.Fatalf("crash-free run: %d frames, %v", len(ends), err)
		}
		k := len(ends)/2 + 3
		write(filepath.Join(root, engine.ShardDirName(s)), s, wal.CrashCut(ends, k, true))
	}
	before := hashTree(t, root)
	src := &Source{WAL: root}
	for _, id := range []string{"done-shard-00", "torn-shard-00", "done-shard-01", "torn-shard-01"} {
		snap, _, st, err := src.StateAt(buildChain, id, 0)
		if err != nil {
			t.Fatalf("%s: %v (stats %+v)", id, err, st)
		}
		if snap.ID != id || st.Shards != 2 {
			t.Fatalf("%s: answered for %s, stats %+v", id, snap.ID, st)
		}
	}
	if after := hashTree(t, root); !reflect.DeepEqual(before, after) {
		for path, data := range before {
			if after[path] != data {
				t.Errorf("query changed %s: %d -> %d bytes", path, len(data), len(after[path]))
			}
		}
		t.Fatalf("query wrote under %s (%d files before, %d after)", root, len(before), len(after))
	}
	// The torn tails are really there: recovery finds and truncates them.
	for s := 0; s < 2; s++ {
		h, err := wal.Ladder{Path: filepath.Join(root, engine.ShardDirName(s))}.Recover()
		if err != nil || h.Torn == 0 {
			t.Fatalf("shard %d: recovery found no torn tail: %+v err=%v", s, h, err)
		}
	}
}

// writeShard runs the named chain instances to completion on shard s of a
// fleet root; a checkpoint pass follows the first checkpointed of them, so
// those finish inside its cover and the rest are its tail.
func writeShard(t *testing.T, root string, s, checkpointed int, ids ...string) {
	t.Helper()
	seg, err := wal.OpenSegmentedLog(filepath.Join(root, engine.ShardDirName(s)), wal.SegmentMaxRecords(4), wal.SegmentFormat(wal.FormatBinary))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		runChain(t, id, seg, engine.WithMetrics(obs.NewRegistry()))
		if i+1 == checkpointed {
			if err := engine.NewCheckpointer(seg).CheckpointNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSourceFullOnFleetRoot: Full means the full-history rung on a fleet
// root too (wfquery state -full -wal FLEET). Both shards are checkpointed,
// so the bounded query answers from a checkpoint rung; the forced one must
// report full-replay and read at least as much.
func TestSourceFullOnFleetRoot(t *testing.T) {
	root := t.TempDir()
	for s := 0; s < 2; s++ {
		name := engine.ShardDirName(s)
		writeShard(t, root, s, 2, "old-1-"+name, "old-2-"+name, "new-"+name)
	}
	for s := 0; s < 2; s++ {
		id := "new-" + engine.ShardDirName(s)
		recs, bounded, err := (&Source{WAL: root}).Records(id)
		if err != nil || bounded.Rung != wal.SourceNewestCheckpoint {
			t.Fatalf("%s bounded: stats %+v err=%v", id, bounded, err)
		}
		frecs, full, err := (&Source{WAL: root, Full: true}).Records(id)
		if err != nil {
			t.Fatal(err)
		}
		if full.Rung != wal.SourceFullReplay || full.RecordsRead < bounded.RecordsRead || full.Shards != 2 {
			t.Fatalf("%s with Full: stats %+v, bounded %+v", id, full, bounded)
		}
		if !reflect.DeepEqual(recs, frecs) {
			t.Fatalf("%s: the full rung returned other records than the bounded view", id)
		}
	}
}

// TestSourceFindsInstanceOffItsHomeShard: admission-time rebalancing can
// put an instance on a peer of its consistent-hash home. Probing the home
// shard first is only an order — the instance is still located, from the
// peer's bounded view when it is live there and from the peer's full
// history when the peer's checkpoint lists it as done — and every probe is
// counted.
func TestSourceFindsInstanceOffItsHomeShard(t *testing.T) {
	const shards = 3
	root := t.TempDir()
	away := func(id string) int { return (engine.ShardFor(id, shards) + 1) % shards }
	ids := make([][]string, shards)
	for _, id := range []string{"moved-done-a", "moved-done-b", "moved-done-c", "moved-live-a", "moved-live-b", "moved-live-c"} {
		ids[away(id)] = append(ids[away(id)], id)
	}
	for s := 0; s < shards; s++ {
		// A resident of its own so every shard has a checkpoint and a tail.
		name := engine.ShardDirName(s)
		var done, live []string
		for _, id := range ids[s] {
			if strings.HasPrefix(id, "moved-done") {
				done = append(done, id)
			} else {
				live = append(live, id)
			}
		}
		done = append(done, "resident-done-"+name)
		writeShard(t, root, s, len(done), append(append(done, live...), "resident-live-"+name)...)
	}
	src := &Source{WAL: root}
	for s := 0; s < shards; s++ {
		for _, id := range ids[s] {
			snap, _, st, err := src.StateAt(buildChain, id, 0)
			if err != nil {
				t.Fatalf("%s (on shard %d, home %d): %v", id, s, engine.ShardFor(id, shards), err)
			}
			wantRung := wal.SourceNewestCheckpoint
			if strings.HasPrefix(id, "moved-done") {
				wantRung = wal.SourceFullReplay
			}
			if snap.ID != id || snap.Status != "finished" || st.Rung != wantRung || st.RecordsReplayed == 0 {
				t.Fatalf("%s: snapshot %+v stats %+v, want rung %s", id, snap, st, wantRung)
			}
		}
	}
	if _, st, err := src.Records("nobody"); err == nil || !strings.Contains(err.Error(), "not found in any shard under") || st.Shards != shards {
		t.Fatalf("absent instance: stats %+v err=%v", st, err)
	}
}
