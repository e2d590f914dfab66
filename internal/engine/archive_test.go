package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestCheckpointPruneCrashWindowRegression pins the crash window between
// WriteCheckpoint and the retention prune: a pass that crashes after
// publishing its checkpoint but before pruning leaves covered segments
// (and a surplus checkpoint) orphaned on disk. Before the fix,
// CheckpointNow returned early on a pass with nothing newly sealed, so
// the orphans persisted until new work happened to seal another segment
// — a retention leak on an idle fleet. The next pass must now run
// retention even when it writes nothing, and recovery over the repaired
// state must stay exact.
func TestCheckpointPruneCrashWindowRegression(t *testing.T) {
	dir := t.TempDir()
	slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpointer(slog, CheckpointEveryRecords(4))
	e, _ := newRecoveryEngine(t)
	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			inst, err := e.CreateInstance("Rec", nil, slog)
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.Start(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase A: a normal pass establishes checkpoint 1.
	run(2)
	if err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	cp1, err := wal.LoadCheckpoint(dir)
	if err != nil || cp1 == nil {
		t.Fatalf("phase A checkpoint: %v, %v", cp1, err)
	}

	// Phase B: more work, then a pass that "crashes" after publishing its
	// checkpoint and before pruning — replayed here by hand.
	run(2)
	if err := slog.Rotate(); err != nil {
		t.Fatal(err)
	}
	var recs []wal.Record
	maxIdx := cp1.Cover
	for _, s := range slog.SealedSegments() {
		if s.Index <= cp1.Cover {
			continue
		}
		rs, err := wal.ReadFile(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rs...)
		maxIdx = s.Index
	}
	if maxIdx <= cp1.Cover {
		t.Fatalf("phase B sealed nothing past cover %d", cp1.Cover)
	}
	if _, err := wal.WriteCheckpoint(dir, wal.BuildCheckpoint(cp1, recs, maxIdx)); err != nil {
		t.Fatal(err)
	}
	// Crash: no prune ran. Segments covered by checkpoint 1 are orphans.
	if err := slog.Close(); err != nil {
		t.Fatal(err)
	}
	orphans := 0
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s.Index <= cp1.Cover {
			orphans++
		}
	}
	if orphans == 0 {
		t.Fatal("crash window left no orphaned covered segments — scenario not exercised")
	}

	// Restart: reopen the log and run one pass with nothing newly sealed.
	slog2, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	ck2 := NewCheckpointer(slog2, CheckpointEveryRecords(4))
	if err := ck2.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	segs, err = wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s.Index <= cp1.Cover {
			t.Fatalf("orphaned segment %d survived the no-op pass (cover %d)", s.Index, cp1.Cover)
		}
	}
	cps, err := wal.ListCheckpoints(dir)
	if err != nil || len(cps) > 2 {
		t.Fatalf("checkpoints after no-op pass: %v err=%v", cps, err)
	}
	if err := slog2.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery over the repaired layout is exact: all four instances
	// finish with the baseline trail (or sit in Done).
	e2, _ := newRecoveryEngine(t)
	insts, h, err := RecoverLadder(e2, wal.Ladder{Path: dir}, nil)
	if err != nil || h.Checkpoint == nil {
		t.Fatalf("recovery after repair: %+v, %v", h, err)
	}
	if len(insts)+len(h.Done()) != 4 {
		t.Fatalf("recovered %d + done %d != 4", len(insts), len(h.Done()))
	}
	want := fmt.Sprint(baselineTrail(t))
	for _, inst := range insts {
		if !inst.Finished() {
			t.Fatalf("recovered %s not finished", inst.ID())
		}
		if got := fmt.Sprint(trailStrings(inst)); got != want {
			t.Fatalf("trail diverges:\ngot:  %s\nwant: %s", got, want)
		}
	}
}

func TestFleetArchiveRequiresCheckpointing(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	_, err := NewFleet(e, FleetConfig{
		Shards: 2, Dir: t.TempDir(), ArchiveDir: t.TempDir(),
	})
	if err == nil || !strings.Contains(err.Error(), "CheckpointEveryRecords") {
		t.Fatalf("archive without checkpointing accepted: %v", err)
	}
}

// TestFleetArchiveRoundTrip wires a fleet to a directory archive, runs
// work, then destroys every local checkpoint and recovers each shard
// through RecoverLadder with its archive store: every shard must climb to
// the archive rung, fetch its checkpoint from the store, and reconstruct
// every instance.
func TestFleetArchiveRoundTrip(t *testing.T) {
	const n = 16
	root, arch := t.TempDir(), t.TempDir()
	e := newTestEngine(t)
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(e, FleetConfig{
		Shards: 2, Dir: root, Parallel: 2, MaxQueue: 4,
		GroupCommit: true, SegmentMaxRecords: 8,
		CheckpointEveryRecords: 8, ArchiveDir: arch,
		ArchiveOpts: func(shard int) []wal.ArchiverOption {
			return []wal.ArchiverOption{
				wal.ArchiveBackoff(time.Millisecond, 4*time.Millisecond),
				wal.ArchiveSeed(int64(shard)),
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run("Chain", n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != n {
		t.Fatalf("result = %+v", res)
	}
	// Flush the archive before shutdown so the round trip below has every
	// shard's newest checkpoint in the store.
	for _, sh := range f.Shards() {
		if a := sh.Archiver(); a == nil || !a.Drain(5*time.Second) {
			t.Fatalf("shard %d archiver did not drain", sh.ID)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Burn every local checkpoint; the sealed segments stay.
	dirs, err := ShardDirs(root)
	if err != nil || len(dirs) != 2 {
		t.Fatalf("shard dirs: %v err=%v", dirs, err)
	}
	for _, dir := range dirs {
		cps, err := wal.ListCheckpoints(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ci := range cps {
			if err := os.Remove(ci.Path); err != nil {
				t.Fatal(err)
			}
		}
	}

	e2 := newTestEngine(t)
	if err := e2.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	// Instances that finished inside an archived checkpoint's cover sit in
	// its Done list rather than the recovered slice; together they must
	// account for the whole fleet.
	recovered, done := 0, 0
	for _, dir := range dirs {
		st, err := wal.NewDirStore(filepath.Join(arch, filepath.Base(dir)))
		if err != nil {
			t.Fatal(err)
		}
		insts, h, err := RecoverLadder(e2, wal.Ladder{Path: dir, Store: st}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if h.Rung != wal.SourceArchiveCheckpoint {
			t.Fatalf("shard %s recovered via %q, want %q", dir, h.Rung, wal.SourceArchiveCheckpoint)
		}
		for _, inst := range insts {
			if !inst.Finished() {
				t.Fatalf("recovered %s not finished", inst.ID())
			}
		}
		recovered += len(insts)
		done += len(h.Done())
	}
	if recovered+done != n {
		t.Fatalf("recovered %d + done %d != %d", recovered, done, n)
	}
}
