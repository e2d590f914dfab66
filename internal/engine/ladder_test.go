package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// ladderRow is one scenario of the recovery-ladder table: how the log is
// written, what is done to it after the crash, and what a walk of the
// ladder must then report. Every scenario writes the same history: four
// "Rec" instances run to completion and a fifth crashes after three
// records with half a record torn on disk.
type ladderRow struct {
	name    string
	file    bool // a single log file instead of a segment directory
	shards  int  // > 0: a sharded root, the history written once per shard
	passes  int  // a checkpoint pass after each of the first passes instances
	archive bool // archiver attached; every sealed segment archived before the crash
	// damage is applied to each log directory after the crash (arch is its
	// archive directory, "" without one).
	damage func(t *testing.T, dir, arch string)

	// fails: the damage is lost history, not a torn tail. Every walk must
	// fail, a second walk must fail with the same error, and no walk —
	// the recovering one included — may change a byte on disk.
	fails bool

	rung      string // rung every walk must report
	read      int    // records a walk reads, checkpoint plus tail, per log
	done      int    // instances the chosen checkpoint already marks finished, per log
	fallbacks int64  // damaged checkpoints a walk skips (recover.checkpoint_fallbacks), per log
}

const (
	ladderInstances = 5  // per log; the last one crashes
	ladderRecords   = 11 // records of one finished "Rec" instance
	ladderCrashAt   = 3  // records the crashed instance got to disk
)

func ladderRows() []ladderRow {
	const whole = (ladderInstances-1)*ladderRecords + ladderCrashAt
	return []ladderRow{
		{name: "single file", file: true, rung: wal.SourceFullReplay, read: whole},
		{name: "segment dir without checkpoint", rung: wal.SourceFullReplay, read: whole},
		{name: "newest checkpoint", passes: 3, rung: wal.SourceNewestCheckpoint, read: 22, done: 2},
		{name: "damaged newest -> previous", passes: 3, damage: damageNewestCheckpoint,
			rung: wal.SourcePreviousCheckpoint, read: 25, done: 2, fallbacks: 1},
		{name: "every checkpoint damaged -> full replay", passes: 1, damage: damageNewestCheckpoint,
			rung: wal.SourceFullReplay, read: whole, fallbacks: 1},
		{name: "leftover .tmp", passes: 3, damage: func(t *testing.T, dir, _ string) {
			writeFile(t, filepath.Join(dir, "ckpt-999999.ckpt.tmp"), []byte("garbage"))
		}, rung: wal.SourceNewestCheckpoint, read: 22, done: 2},
		{name: "archive checkpoint", passes: 3, archive: true, damage: func(t *testing.T, dir, _ string) {
			cps, err := wal.ListCheckpoints(dir)
			if err != nil || len(cps) == 0 {
				t.Fatalf("checkpoints: %v err=%v", cps, err)
			}
			for _, ci := range cps {
				if err := os.Remove(ci.Path); err != nil {
					t.Fatal(err)
				}
			}
		}, rung: wal.SourceArchiveCheckpoint, read: 22, done: 2},
		{name: "archived-only segment", passes: 3, archive: true, damage: func(t *testing.T, dir, arch string) {
			if err := os.Remove(archivedTailSegment(t, dir, arch)); err != nil {
				t.Fatal(err)
			}
		}, rung: wal.SourceNewestCheckpoint, read: 22, done: 2},
		{name: "torn local segment replaced from archive", passes: 3, archive: true, damage: func(t *testing.T, dir, arch string) {
			path := archivedTailSegment(t, dir, arch)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, path, data[:len(data)-len(data)/4])
		}, rung: wal.SourceNewestCheckpoint, read: 22, done: 2},
		{name: "sharded root", shards: 2, passes: 3, rung: wal.SourceNewestCheckpoint, read: 22, done: 2},
		{name: "torn segment before later records", fails: true, damage: func(t *testing.T, dir, _ string) {
			damageFirstSegment(t, dir, false)
		}},
	}
}

// damageFirstSegment flips one byte of dir's first segment, which holds
// only records of w-0: three bytes from its end — inside its last record, so
// the segment reads as torn with records after it in later segments — or in
// its middle (a bad frame with frames after it).
func damageFirstSegment(t *testing.T, dir string, middle bool) {
	t.Helper()
	segs, err := wal.ListSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("segments: %v err=%v", segs, err)
	}
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	at := len(data) - 3
	if middle {
		at = len(data) / 2
	}
	data[at] ^= 0x40
	writeFile(t, segs[0].Path, data)
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// damageNewestCheckpoint tears the newest checkpoint file in half.
func damageNewestCheckpoint(t *testing.T, dir, _ string) {
	t.Helper()
	cps, err := wal.ListCheckpoints(dir)
	if err != nil || len(cps) == 0 {
		t.Fatalf("checkpoints: %v err=%v", cps, err)
	}
	path := cps[len(cps)-1].Path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, path, data[:len(data)/2])
}

// archivedTailSegment returns the local path of the first sealed segment
// past the newest checkpoint's cover that the archive also holds.
func archivedTailSegment(t *testing.T, dir, arch string) string {
	t.Helper()
	cp, err := wal.LoadCheckpoint(dir)
	if err != nil || cp == nil {
		t.Fatalf("newest checkpoint: %v err=%v", cp, err)
	}
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if _, err := os.Stat(filepath.Join(arch, filepath.Base(s.Path))); err == nil && s.Index > cp.Cover {
			return s.Path
		}
	}
	t.Fatalf("no archived segment past cover %d in %s", cp.Cover, dir)
	return ""
}

// writeLadderLog is the create → write → crash half of a row for one log:
// it returns the ladder that names what was left behind. The history is
// written twice — crash-free beside dir for the byte to die at, then over a
// file system that dies there, inside the last instance's fourth record.
func writeLadderLog(t *testing.T, row ladderRow, format wal.Format, dir, prefix string) wal.Ladder {
	t.Helper()
	clean := dir + ".clean"
	if err := os.MkdirAll(clean, 0o755); err != nil {
		t.Fatal(err)
	}
	l, wrote := writeLadderRun(t, row, format, clean, prefix, 0)
	ends, err := wal.FrameEnds(l.Path)
	if err != nil || len(ends) < ladderRecords {
		t.Fatalf("crash-free run: %d frames, %v", len(ends), err)
	}
	// Checkpoint passes pruned the oldest segments: what is left ends with
	// the last instance's records, wrote-ends[last] bytes into the run.
	b := wrote - ends[len(ends)-1] + wal.CrashCut(ends, len(ends)-ladderRecords+ladderCrashAt, true)
	for _, d := range []string{clean, clean + ".arch"} {
		if err := os.RemoveAll(d); err != nil {
			t.Fatal(err)
		}
	}
	l, _ = writeLadderRun(t, row, format, dir, prefix, b)
	return l
}

// writeLadderRun writes a row's history through a log in dir whose file
// system dies at byte b (0: never). The log is not fsynced, so the crash
// surfaces when its write buffer next drains — in the last instance or on
// Close — and leaves the same bytes. It returns the ladder and how many
// bytes the log wrote.
func writeLadderRun(t *testing.T, row ladderRow, format wal.Format, dir, prefix string, b int64) (wal.Ladder, int64) {
	t.Helper()
	e, _ := newRecoveryEngine(t)
	run := func(i int, log wal.Log) error {
		inst, err := e.CreateInstanceID("Rec", fmt.Sprintf("%sw-%d", prefix, i), nil, log)
		if err != nil {
			t.Fatal(err)
		}
		return inst.Start()
	}
	reg := obs.NewRegistry()
	fs := wal.NewFaultFS(wal.FaultCrash, b)
	last := func(log interface {
		wal.Log
		Close() error
	}) int64 {
		if err := run(ladderInstances-1, log); err != nil && !errors.Is(err, wal.ErrCrash) {
			t.Fatal(err)
		}
		if err := log.Close(); fs.Fired() != (b > 0) || (err != nil) != (b > 0) {
			t.Fatalf("crash at byte %d: fired=%v, close: %v", b, fs.Fired(), err)
		}
		return reg.Counter("wal.file.bytes").Value()
	}
	if row.file {
		path := filepath.Join(dir, "run.wal")
		flog, err := wal.OpenFileLog(path, wal.WithFormat(format), wal.WithFS(fs), wal.WithMetricsRegistry(reg))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ladderInstances-1; i++ {
			if err := run(i, flog); err != nil {
				t.Fatal(err)
			}
		}
		return wal.Ladder{Path: path}, last(flog)
	}

	slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(4), wal.SegmentFormat(format),
		wal.SegmentFS(fs), wal.SegmentMetricsRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	l := wal.Ladder{Path: dir}
	ckopts := []CheckpointerOption{CheckpointEveryRecords(4)}
	var arch *wal.Archiver
	if row.archive {
		st, err := wal.NewDirStore(dir + ".arch")
		if err != nil {
			t.Fatal(err)
		}
		arch = wal.NewArchiver(st, wal.ArchiveBackoff(time.Millisecond, 4*time.Millisecond),
			wal.ArchiveMetricsRegistry(obs.NewRegistry()))
		arch.Start()
		defer arch.Stop()
		ckopts = append(ckopts, CheckpointArchive(arch))
		l.Store = st
	}
	ck := NewCheckpointer(slog, ckopts...)
	for i := 0; i < ladderInstances-1; i++ {
		if err := run(i, slog); err != nil {
			t.Fatal(err)
		}
		if i < row.passes {
			if err := ck.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if arch != nil {
		// The segments sealed since the last pass are the checkpoint's tail:
		// archive them too, as the next pass would have.
		for _, s := range slog.SealedSegments() {
			arch.Enqueue(s.Path)
		}
		if !arch.Drain(5 * time.Second) {
			t.Fatal("archiver did not drain")
		}
	}
	return l, last(slog)
}

// buildLadderCorpus is the create → write → crash → damage half of a row:
// the root everything was written under and one ladder per log left behind
// (one per shard directory on a sharded row).
func buildLadderCorpus(t *testing.T, row ladderRow, format wal.Format) (string, []wal.Ladder) {
	t.Helper()
	root := t.TempDir()
	var ladders []wal.Ladder
	if row.shards == 0 {
		dir := filepath.Join(root, "log")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		ladders = append(ladders, writeLadderLog(t, row, format, dir, ""))
	}
	for s := 0; s < row.shards; s++ {
		writeLadderLog(t, row, format, filepath.Join(root, ShardDirName(s)), fmt.Sprintf("s%d-", s))
	}
	if row.shards > 0 {
		// A stray copy beside the shards must not become a shard.
		if err := os.MkdirAll(filepath.Join(root, "shard-00.bak"), 0o755); err != nil {
			t.Fatal(err)
		}
		dirs, err := ShardDirs(root)
		if err != nil || len(dirs) != row.shards {
			t.Fatalf("ShardDirs = %v err=%v", dirs, err)
		}
		for _, dir := range dirs {
			ladders = append(ladders, wal.Ladder{Path: dir})
		}
	}
	if row.damage != nil {
		for _, l := range ladders {
			row.damage(t, l.Path, l.Path+".arch")
		}
	}
	return root, ladders
}

// readTree maps every file under root to its content.
func readTree(t *testing.T, root string) map[string]string {
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

// TestLadderTable is the one table behind every way of reopening a log:
// create → write → crash → (damage) → reopen through the ladder → compare
// with the crash-free run, for every row × {text, binary} × {the
// recovering walk, the non-mutating walk}. Each cell asserts the rung, the
// records read, the damaged checkpoints skipped, the torn tail, and that
// every instance is either marked finished by the checkpoint or recovered
// to the crash-free trail, output and snapshot; the non-mutating walk must
// in addition leave every file byte-identical and wal.recovery.*
// untouched. A row marked fails asserts the opposite contract: both walks
// fail, twice with one error, and the recovering walk repairs nothing it
// met on the way to that error.
func TestLadderTable(t *testing.T) {
	// The crash-free run: every instance has the same trail and output.
	wantTrail := fmt.Sprint(baselineTrail(t))
	ref, _ := newRecoveryEngine(t)
	refInst, err := ref.CreateInstanceID("Rec", "ref", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := refInst.Start(); err != nil {
		t.Fatal(err)
	}
	wantSnap := refInst.Snapshot()

	repairs := obs.Default.Counter("wal.recovery.repairs")
	repaired := obs.Default.Counter("wal.recovery.records")
	fallbacks := obs.Default.Counter("recover.checkpoint_fallbacks")
	for _, row := range ladderRows() {
		for _, format := range []wal.Format{wal.FormatText, wal.FormatBinary} {
			for _, mutate := range []bool{true, false} {
				walk := map[bool]string{true: "recover", false: "read"}[mutate]
				t.Run(fmt.Sprintf("%s/%s/%s", row.name, format, walk), func(t *testing.T) {
					root, ladders := buildLadderCorpus(t, row, format)

					before := readTree(t, root)
					repairs0, repaired0 := repairs.Value(), repaired.Value()
					if row.fails {
						for _, l := range ladders {
							walk := l.Read
							if mutate {
								walk = l.Recover
							}
							_, first := walk()
							if first == nil {
								t.Fatalf("%s: the walk read through lost history", l.Path)
							}
							if after := readTree(t, root); !reflect.DeepEqual(before, after) {
								t.Fatalf("%s: a failing walk changed a file (%v)", l.Path, first)
							}
							if _, second := walk(); second == nil || second.Error() != first.Error() {
								t.Fatalf("%s: second walk: %v, first walk: %v", l.Path, second, first)
							}
						}
						if repairs.Value() != repairs0 || repaired.Value() != repaired0 {
							t.Fatal("a failing walk moved wal.recovery.*")
						}
						return
					}
					e, _ := newRecoveryEngine(t)
					var insts []*Instance
					for _, l := range ladders {
						var h *wal.History
						var got []*Instance
						var err error
						fallbacks0 := fallbacks.Value()
						if mutate {
							got, h, err = RecoverLadder(e, l, nil)
						} else if h, err = l.Read(); err == nil {
							got, err = RecoverAllFromCheckpoint(e, h.Checkpoint, h.Tail, nil)
						}
						if err != nil {
							t.Fatalf("%s: %v", l.Path, err)
						}
						if h.Rung != row.rung || h.Len() != row.read || len(h.Done()) != row.done {
							t.Fatalf("%s: rung %q read %d done %d, want %q %d %d",
								l.Path, h.Rung, h.Len(), len(h.Done()), row.rung, row.read, row.done)
						}
						if d := fallbacks.Value() - fallbacks0; d != row.fallbacks {
							t.Fatalf("%s: %d damaged checkpoints skipped, want %d", l.Path, d, row.fallbacks)
						}
						if h.Torn == 0 {
							t.Fatalf("%s: the crash's torn record went unnoticed", l.Path)
						}
						if len(got)+row.done != ladderInstances {
							t.Fatalf("%s: recovered %d + done %d != %d", l.Path, len(got), row.done, ladderInstances)
						}
						insts = append(insts, got...)
					}
					for _, inst := range insts {
						snap := inst.Snapshot()
						snap.ID = wantSnap.ID
						if !inst.Finished() || fmt.Sprint(trailStrings(inst)) != wantTrail ||
							!inst.Output().Equal(refInst.Output()) || !snap.Equal(wantSnap) {
							t.Fatalf("%s diverges from the crash-free run:\n%v\nwant\n%v", inst.ID(), trailStrings(inst), wantTrail)
						}
					}

					if !mutate {
						if after := readTree(t, root); !reflect.DeepEqual(before, after) {
							t.Fatal("the non-mutating walk changed a file")
						}
						if repairs.Value() != repairs0 || repaired.Value() != repaired0 {
							t.Fatal("the non-mutating walk moved wal.recovery.*")
						}
						return
					}
					// The recovering walk left a log that is clean to reopen.
					for _, l := range ladders {
						if h, err := l.Read(); err != nil || h.Torn != 0 || h.Len() != row.read {
							t.Fatalf("%s after recovery: %+v err=%v", l.Path, h, err)
						}
					}
					if row.shards > 0 {
						e2, _ := newRecoveryEngine(t)
						fleet, err := RecoverFleet(e2, root, nil)
						if err != nil || len(fleet) != len(insts) {
							t.Fatalf("RecoverFleet: %d instances err=%v, want %d", len(fleet), err, len(insts))
						}
						for i := range fleet {
							if fleet[i].ID() != insts[i].ID() || !fleet[i].Snapshot().Equal(insts[i].Snapshot()) {
								t.Fatalf("RecoverFleet[%d] = %s, per-shard recovery gave %s", i, fleet[i].ID(), insts[i].ID())
							}
						}
					}
				})
			}
		}
	}
}

// onlyInstance keeps the records of one instance, preserving order — what
// a walk that names the instance must return of an unfiltered walk's tail.
func onlyInstance(recs []wal.Record, id string) []wal.Record {
	var out []wal.Record
	for _, r := range recs {
		if r.Instance == id {
			out = append(out, r)
		}
	}
	return out
}

// TestLadderInstanceDifferential pins instance push-down against the walk
// it projects: over every corpus of the ladder table × {text, binary} ×
// {Recover, Read}, for every instance ID on disk and one that is not, the
// walk of Ladder{Instance: id} returns exactly the unfiltered walk's tail
// filtered to id, with the same rung, torn bytes, records read and done
// list. The recovering walk truncates what it reads, so each of its cells
// gets a corpus of its own.
func TestLadderInstanceDifferential(t *testing.T) {
	for _, row := range ladderRows() {
		if row.fails {
			continue // nothing to project: TestLadderInstanceSeesForeignDamage
		}
		for _, format := range []wal.Format{wal.FormatText, wal.FormatBinary} {
			for _, mutate := range []bool{true, false} {
				walk := func(l wal.Ladder) (*wal.History, error) {
					if mutate {
						return l.Recover()
					}
					return l.Read()
				}
				name := map[bool]string{true: "recover", false: "read"}[mutate]
				t.Run(fmt.Sprintf("%s/%s/%s", row.name, format, name), func(t *testing.T) {
					_, ladders := buildLadderCorpus(t, row, format)
					var whole []*wal.History
					ids := []string{"nobody"}
					for _, l := range ladders {
						h, err := walk(l)
						if err != nil {
							t.Fatalf("%s: %v", l.Path, err)
						}
						whole = append(whole, h)
						seen := map[string]bool{}
						for _, recs := range [][]wal.Record{h.Tail, cpRecords(h)} {
							for _, r := range recs {
								if !seen[r.Instance] {
									seen[r.Instance] = true
									ids = append(ids, r.Instance)
								}
							}
						}
					}
					for _, id := range ids {
						if mutate {
							_, ladders = buildLadderCorpus(t, row, format)
						}
						for i, l := range ladders {
							l.Instance = id
							h, err := walk(l)
							if err != nil {
								t.Fatalf("%s for %s: %v", l.Path, id, err)
							}
							want := whole[i]
							if !reflect.DeepEqual(h.Tail, onlyInstance(want.Tail, id)) {
								t.Fatalf("%s for %s: tail\n%v\nwant\n%v", l.Path, id, h.Tail, onlyInstance(want.Tail, id))
							}
							if h.Rung != want.Rung || h.Torn != want.Torn || h.Len() != want.Len() ||
								!reflect.DeepEqual(h.Done(), want.Done()) || !reflect.DeepEqual(cpRecords(h), cpRecords(want)) {
								t.Fatalf("%s for %s: rung %q torn %d read %d done %v, want %q %d %d %v", l.Path, id,
									h.Rung, h.Torn, h.Len(), h.Done(), want.Rung, want.Torn, want.Len(), want.Done())
							}
						}
					}
				})
			}
		}
	}
}

// cpRecords is the checkpoint half of a walk, nil on the full-replay rung.
func cpRecords(h *wal.History) []wal.Record {
	if h.Checkpoint == nil {
		return nil
	}
	return h.Checkpoint.Records
}

// TestLadderInstanceSeesForeignDamage: naming an instance does not excuse
// the frames the walk skips. A checksum broken in the middle of the log, in
// a record of another instance, fails the filtered walk with the very
// error the unfiltered walk reports, in both framings and both walks. A
// failing Recover repairs nothing, so every walk shares one corpus.
func TestLadderInstanceSeesForeignDamage(t *testing.T) {
	row := ladderRows()[1] // a segment directory, no checkpoint
	for _, format := range []wal.Format{wal.FormatText, wal.FormatBinary} {
		t.Run(format.String(), func(t *testing.T) {
			for _, middle := range []bool{false, true} {
				_, ladders := buildLadderCorpus(t, row, format)
				l := ladders[0]
				damageFirstSegment(t, l.Path, middle)
				_, want := l.Read()
				if want == nil {
					t.Fatal("the unfiltered walk read through a broken checksum")
				}
				for _, id := range []string{"w-0", "w-3", "nobody"} {
					l.Instance = id
					if _, err := l.Read(); err == nil || err.Error() != want.Error() {
						t.Fatalf("Read for %s: %v, want %v", id, err, want)
					}
					if _, err := l.Recover(); err == nil || err.Error() != want.Error() {
						t.Fatalf("Recover for %s: %v, want %v", id, err, want)
					}
				}
				t.Logf("middle=%v: %v", middle, want)
			}
		})
	}
}
