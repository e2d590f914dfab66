package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// genFleetHistory runs n instances of the recovery process on one engine,
// crashing a random subset mid-flight, and returns the per-instance
// record slices plus a randomized interleaving of them (per-instance
// order preserved — what a shared group-commit log would hold).
func genFleetHistory(t *testing.T, r *rand.Rand, n int) (map[string][]wal.Record, []wal.Record) {
	t.Helper()
	e, _ := newRecoveryEngine(t)
	perInst := make(map[string][]wal.Record)
	var ids []string
	for i := 0; i < n; i++ {
		log := &wal.MemLog{}
		if r.Intn(2) == 0 {
			log.CrashAfter = 1 + r.Intn(10) // mid-flight at a random point
		}
		inst, err := e.CreateInstance("Rec", nil, log)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Start(); err != nil && !errors.Is(err, wal.ErrCrash) {
			t.Fatal(err)
		}
		perInst[inst.ID()] = log.Records()
		ids = append(ids, inst.ID())
	}
	// Randomized merge: repeatedly pick an instance with records left.
	pos := make(map[string]int)
	var merged []wal.Record
	for {
		var live []string
		for _, id := range ids {
			if pos[id] < len(perInst[id]) {
				live = append(live, id)
			}
		}
		if len(live) == 0 {
			break
		}
		id := live[r.Intn(len(live))]
		merged = append(merged, perInst[id][pos[id]])
		pos[id]++
	}
	return perInst, merged
}

func snapshotsByID(insts []*Instance) map[string]*InstanceSnapshot {
	out := make(map[string]*InstanceSnapshot, len(insts))
	for _, inst := range insts {
		out[inst.ID()] = inst.Snapshot()
	}
	return out
}

// TestCheckpointRecoveryEquivalence is the Compact/checkpoint divergence
// property test: for randomized interleaved fleet histories, recovery by
// full replay, recovery over Compact-ed per-instance records, and
// checkpoint-based recovery (BuildCheckpoint over a random prefix, written
// to disk and read back, plus tail replay) must reconstruct identical
// instances.
func TestCheckpointRecoveryEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		perInst, merged := genFleetHistory(t, r, 3+r.Intn(4))

		// Path A: full replay of the interleaved history.
		eA, _ := newRecoveryEngine(t)
		instsA, err := RecoverAllFromCheckpoint(eA, nil, merged, nil)
		if err != nil {
			t.Fatalf("seed %d: full replay: %v", seed, err)
		}
		snapA := snapshotsByID(instsA)

		// Path B: Recover(Compact(recs)) per instance.
		eB, _ := newRecoveryEngine(t)
		for id, recs := range perInst {
			inst, err := Recover(eB, wal.Compact(recs), nil)
			if err != nil {
				t.Fatalf("seed %d: compacted recover %s: %v", seed, id, err)
			}
			if !inst.Snapshot().Equal(snapA[id]) {
				t.Fatalf("seed %d: Recover(Compact) diverges for %s:\n%+v\nvs\n%+v",
					seed, id, inst.Snapshot(), snapA[id])
			}
		}

		// Path C: checkpoint a random prefix (through the on-disk format),
		// replay only the tail.
		k := r.Intn(len(merged) + 1)
		cp := wal.BuildCheckpoint(nil, merged[:k], 1)
		dir := t.TempDir()
		if _, err := wal.WriteCheckpoint(dir, cp); err != nil {
			t.Fatal(err)
		}
		loaded, err := wal.LoadCheckpoint(dir)
		if err != nil || loaded == nil {
			t.Fatalf("seed %d: reload checkpoint: %v", seed, err)
		}
		eC, _ := newRecoveryEngine(t)
		instsC, err := RecoverAllFromCheckpoint(eC, loaded, merged[k:], nil)
		if err != nil {
			t.Fatalf("seed %d: checkpoint recovery (k=%d): %v", seed, k, err)
		}
		snapC := snapshotsByID(instsC)
		doneC := make(map[string]bool)
		for _, id := range loaded.Done {
			doneC[id] = true
		}
		for id, want := range snapA {
			got, recovered := snapC[id]
			switch {
			case recovered && doneC[id]:
				t.Fatalf("seed %d: %s both recovered and marked done", seed, id)
			case doneC[id]:
				// Finished inside the covered prefix: not resurrected, but it
				// must indeed have finished.
				if want.Status != "finished" {
					t.Fatalf("seed %d: %s marked done but full replay says %s", seed, id, want.Status)
				}
			case !recovered:
				t.Fatalf("seed %d: instance %s lost by checkpoint recovery (k=%d)", seed, id, k)
			case !got.Equal(want):
				t.Fatalf("seed %d: checkpoint recovery diverges for %s (k=%d):\n%+v\nvs\n%+v",
					seed, id, k, got, want)
			}
		}
	}
}

// TestCheckpointerRetention drives instances through a segmented log with
// synchronous checkpoint passes and verifies the retention rules: at most
// two checkpoints on disk, segments covered by the older one deleted, and
// ladder recovery (newest checkpoint + tail) reproducing the crash-free
// state while replaying far fewer records than the full history.
func TestCheckpointerRetention(t *testing.T) {
	// write runs five instances with a checkpoint pass after each, then a
	// sixth, over a durable segmented log whose file system dies at byte b
	// (0: never) — and returns how many bytes the log wrote in all, more
	// than dir still holds once retention has pruned.
	write := func(dir string, b int64) int64 {
		reg := obs.NewRegistry()
		slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(4), wal.SegmentFsync(),
			wal.SegmentFS(wal.NewFaultFS(wal.FaultCrash, b)), wal.SegmentMetricsRegistry(reg))
		if err != nil {
			t.Fatal(err)
		}
		defer slog.Close()
		ck := NewCheckpointer(slog, CheckpointEveryRecords(4))

		e, _ := newRecoveryEngine(t)
		for i := 0; i < 5; i++ {
			inst, err := e.CreateInstance("Rec", nil, slog)
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.Start(); err != nil {
				t.Fatal(err)
			}
			if err := ck.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
		}
		last, err := e.CreateInstance("Rec", nil, slog)
		if err != nil {
			t.Fatal(err)
		}
		if err := last.Start(); (b > 0) != errors.Is(err, wal.ErrCrash) || (b == 0 && err != nil) {
			t.Fatalf("crash at byte %d: got %v", b, err)
		}
		return reg.Counter("wal.file.bytes").Value()
	}
	// Crash the final instance mid-flight: three records on disk, the
	// fourth torn. The crash byte comes from a crash-free run, whose
	// surviving segments end with the last instance's eleven records.
	clean := t.TempDir()
	wrote := write(clean, 0)
	ends, err := wal.FrameEnds(clean)
	if err != nil || len(ends) < 11 {
		t.Fatalf("crash-free run: %d frames, %v", len(ends), err)
	}
	dir := t.TempDir()
	write(dir, wrote-ends[len(ends)-1]+wal.CrashCut(ends, len(ends)-11+3, true))

	cps, err := wal.ListCheckpoints(dir)
	if err != nil || len(cps) == 0 || len(cps) > 2 {
		t.Fatalf("checkpoints on disk: %v err=%v", cps, err)
	}
	older, err := wal.ReadCheckpoint(cps[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) == 2 {
		for _, s := range segs {
			if s.Index <= older.Cover {
				t.Fatalf("segment %d covered by checkpoint %d not pruned", s.Index, older.Seq)
			}
		}
	}

	e2, _ := newRecoveryEngine(t)
	insts, h, err := RecoverLadder(e2, wal.Ladder{Path: dir}, nil)
	if err != nil || h.Checkpoint == nil {
		t.Fatalf("ladder recovery: %+v err=%v", h, err)
	}
	cp := h.Checkpoint
	// Every instance is accounted for: finished ones either in Done (their
	// RecDone fell inside the covered prefix) or recovered to completion
	// from snapshot + tail; the crashed one is re-seeded and finishes with
	// the baseline trail.
	if len(insts)+len(cp.Done) != 6 {
		t.Fatalf("recovered %d + done %d != 6 (done=%v)", len(insts), len(cp.Done), cp.Done)
	}
	if len(cp.Done) < 3 {
		t.Fatalf("checkpoint retained too much: done=%v", cp.Done)
	}
	want := baselineTrail(t)
	foundCrashed := false
	for _, inst := range insts {
		if !inst.Finished() {
			t.Fatalf("recovered instance %s did not finish", inst.ID())
		}
		if inst.ID() == "inst-6" { // the crashed one
			foundCrashed = true
			if fmt.Sprint(trailStrings(inst)) != fmt.Sprint(want) {
				t.Fatalf("trail diverges:\ngot:  %v\nwant: %v", trailStrings(inst), want)
			}
		}
	}
	if !foundCrashed {
		t.Fatal("crashed instance not recovered")
	}
	replayed := h.Len()
	full := 6 * 11 // six instances, eleven records each in a clean history
	if replayed*2 > full {
		t.Fatalf("checkpointed recovery replayed %d records; full history is ~%d", replayed, full)
	}
}

// TestCheckpointerBackground smoke-tests the Start/Stop loop against a
// group-committed fleet log: appenders never stall, and Stop leaves a
// checkpoint covering everything sealed.
func TestCheckpointerBackground(t *testing.T) {
	dir := t.TempDir()
	slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(8))
	if err != nil {
		t.Fatal(err)
	}
	gl := wal.NewGroupCommitSegmented(slog)
	ck := NewCheckpointer(slog, CheckpointInterval(time.Millisecond), CheckpointEveryRecords(8))
	ck.Start()

	e, _ := newRecoveryEngine(t)
	res, err := e.RunFleet(FleetOptions{Process: "Rec", N: 12, Parallel: 4, Log: gl})
	if err != nil || res.Err != nil || res.Finished != 12 {
		t.Fatalf("fleet: %+v (%v)", res, err)
	}
	if err := ck.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := gl.Close(); err != nil {
		t.Fatal(err)
	}
	e2, _ := newRecoveryEngine(t)
	insts, h, err := RecoverLadder(e2, wal.Ladder{Path: dir}, nil)
	if err != nil || h.Checkpoint == nil {
		t.Fatalf("no checkpoint after Stop: %+v err=%v", h, err)
	}
	if len(insts)+len(h.Done()) != 12 {
		t.Fatalf("recovered %d + done %d != 12", len(insts), len(h.Done()))
	}
	for _, inst := range insts {
		if !inst.Finished() {
			t.Fatalf("instance %s not finished after recovery", inst.ID())
		}
	}
}

// TestCheckpointRotationBoundary is the sealed-segment off-by-one audit:
// when rotations land between (and during) checkpoint passes, every sealed
// segment must be folded into exactly one checkpoint — records neither
// lost at the cover boundary nor folded twice — and segment retention must
// keep exactly the previous checkpoint's tail, deleting the segment whose
// index equals prev.Cover but never prev.Cover+1. Records are distinct
// finished activities so Compact keeps all of them and any duplicate or
// gap is visible in the checkpoint's record list.
func TestCheckpointRotationBoundary(t *testing.T) {
	dir := t.TempDir()
	slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(3))
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpointer(slog, CheckpointEveryRecords(2))

	next := 0
	appendN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			rec := wal.Record{Type: wal.RecFinishedActivity, Instance: "x",
				Path: fmt.Sprintf("A%03d", next), Iter: 0}
			if next == 0 {
				rec = wal.Record{Type: wal.RecCreated, Instance: "x", Process: "P"}
			}
			if err := slog.Append(rec); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	// wantRecords checks cp holds the created record plus every finished
	// activity with index < n, each exactly once, in causal order.
	wantRecords := func(cp *wal.Checkpoint, n int) {
		t.Helper()
		if len(cp.Records) != n {
			t.Fatalf("seq %d: %d records folded, want %d (lost or double-folded at cover %d)",
				cp.Seq, len(cp.Records), n, cp.Cover)
		}
		for i, r := range cp.Records {
			want := fmt.Sprintf("A%03d", i)
			if i == 0 {
				if r.Type != wal.RecCreated {
					t.Fatalf("seq %d: record 0 is %+v, want created", cp.Seq, r)
				}
				continue
			}
			if r.Type != wal.RecFinishedActivity || r.Path != want {
				t.Fatalf("seq %d: record %d is %s/%s, want %s", cp.Seq, i, r.Type, r.Path, want)
			}
		}
	}

	// Pass 1: 5 appends → segment 1 auto-seals at 3 records, active holds
	// 2; the record trigger rotates mid-pass, so the pass folds BOTH a
	// previously sealed segment and one sealed by its own rotation.
	appendN(5)
	if err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	cp, err := wal.LoadCheckpoint(dir)
	if err != nil || cp == nil {
		t.Fatalf("load after pass 1: %v", err)
	}
	wantRecords(cp, 5)
	sealedMax := 0
	for _, s := range slog.SealedSegments() {
		if s.Index > sealedMax {
			sealedMax = s.Index
		}
	}
	if cp.Cover != sealedMax {
		t.Fatalf("pass 1: cover %d, sealed max %d", cp.Cover, sealedMax)
	}
	cover1 := cp.Cover

	// A pass with one active record and nothing newly sealed must write
	// nothing (no empty-fold checkpoint advancing Cover past real data).
	appendN(1)
	if err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if cps, _ := wal.ListCheckpoints(dir); len(cps) != 1 {
		t.Fatalf("idle pass wrote a checkpoint: %v", cps)
	}

	// Pass 2: another record arms the rotate trigger; the new checkpoint
	// chains from cp1 and must fold exactly the segments in (cover1, new].
	appendN(1)
	if err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	cp, err = wal.LoadCheckpoint(dir)
	if err != nil || cp == nil || cp.Seq != 2 {
		t.Fatalf("load after pass 2: %+v err=%v", cp, err)
	}
	wantRecords(cp, 7)
	if cp.Cover <= cover1 {
		t.Fatalf("pass 2: cover did not advance (%d -> %d)", cover1, cp.Cover)
	}

	// Pass 3 triggers pruning (two checkpoints already on disk). Segments
	// with index <= cp2.Cover are redundant for both retained rungs;
	// index == cp2.Cover+1 is cp2's tail and must survive.
	cover2 := cp.Cover
	appendN(2)
	if err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	cps, err := wal.ListCheckpoints(dir)
	if err != nil || len(cps) != 2 {
		t.Fatalf("retention: %v err=%v", cps, err)
	}
	if cps[0].Seq != 2 || cps[1].Seq != 3 {
		t.Fatalf("retained wrong checkpoints: %+v", cps)
	}
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s.Index <= cover2 {
			t.Fatalf("segment %d (<= prev cover %d) survived pruning", s.Index, cover2)
		}
	}
	minLeft := segs[0].Index
	for _, s := range segs {
		if s.Index < minLeft {
			minLeft = s.Index
		}
	}
	if minLeft != cover2+1 {
		t.Fatalf("previous checkpoint's tail pruned: oldest segment %d, want %d", minLeft, cover2+1)
	}

	// The ladder still works end to end: newest checkpoint + repaired tail
	// reads back every record exactly once.
	if err := slog.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := wal.Ladder{Path: dir}.Recover()
	if err != nil || h.Checkpoint == nil {
		t.Fatalf("ladder walk: %+v err=%v", h, err)
	}
	seen := make(map[string]int)
	for _, r := range append(append([]wal.Record{}, h.Checkpoint.Records...), h.Tail...) {
		key := string(r.Type) + "/" + r.Path
		seen[key]++
	}
	if len(seen) != next {
		t.Fatalf("checkpoint+tail hold %d distinct records, want %d", len(seen), next)
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("record %s appears %d times across checkpoint+tail", key, n)
		}
	}
}
