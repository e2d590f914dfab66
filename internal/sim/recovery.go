package sim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/wal"
)

// checkpointingLog wraps a Log and runs a synchronous checkpoint pass
// every `every` acknowledged records — a deterministic stand-in for the
// background Checkpointer, so soak iterations are reproducible down to
// which records each checkpoint covers. A navigation step's records go
// down as the one batch the engine hands over; a pass runs after the batch
// that crosses a multiple of `every`.
type checkpointingLog struct {
	inner wal.Log
	ck    *engine.Checkpointer
	every int
	n     int
	err   error
}

func (l *checkpointingLog) Append(rec wal.Record) error {
	return l.AppendBatch([]wal.Record{rec})
}

func (l *checkpointingLog) AppendBatch(recs []wal.Record) error {
	if err := wal.AppendAll(l.inner, recs); err != nil {
		return err
	}
	before := l.n
	l.n += len(recs)
	if l.every > 0 && l.n/l.every > before/l.every {
		if err := l.ck.CheckpointNow(); err != nil && l.err == nil {
			l.err = err
		}
	}
	return nil
}

// fallbackCount reads the global checkpoint-fallback counter that the
// ladder increments when it skips a damaged checkpoint.
func fallbackCount() int64 {
	return obs.Default.Counter("recover.checkpoint_fallbacks").Value()
}

// segmentBytes sums the on-disk size of every WAL segment in dir.
func segmentBytes(dir string) int64 {
	segs, err := wal.ListSegments(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, s := range segs {
		if fi, err := os.Stat(s.Path); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// RunE9 is the checkpointed-recovery soak. It extends E7/E8 to the
// segmented WAL and the checkpoint fallback ladder:
//
//   - both E7 workloads (travel saga on the compensation path, Figure 3
//     flexible transaction) crash at every record boundary — a byte-offset
//     crash (wal.FaultCrash) at every frame end and torn cut of the
//     crash-free run, in both the text and the binary record framing —
//     beneath a durable SegmentedLog; a checkpoint pass folds the segments
//     sealed at crash time (the checkpointer reads only sealed, immutable
//     files, so a post-crash pass is byte-identical to a background pass
//     that ran just before the crash), and recovery seeds from the
//     checkpoint plus the repaired tail. Crash points inside the compensation phase exercise
//     checkpoints taken mid-compensation; crash points just after a
//     rotation leave an empty or torn fresh segment behind.
//   - a mixed-format handoff: a text-era segment directory is reopened
//     with the binary format, crashed inside every binary frame, and both
//     the text-era and binary-era instances must recover across the
//     framing switch.
//   - the ladder cases: a leftover checkpoint .tmp file is ignored, a
//     torn newest checkpoint falls back to the previous one, and a run
//     whose only checkpoint is damaged (nothing pruned yet) falls all the
//     way back to full replay.
//   - a fleet of 4 chain instances shares one group-committed segmented
//     log, crashed at every frame end and torn cut of the crash-free run
//     (a concurrent rerun puts other bytes there: any cut is fair); no
//     acknowledged append may be lost and the ladder must restore or
//     Done-account every instance.
//
// Every recovery must reproduce the baseline's audit trail and a
// bit-identical output container.
func RunE9() *Report {
	r := &Report{
		ID:      "E9",
		Title:   "checkpointed recovery soak: byte-offset crash at every frame end and torn cut of a segmented WAL + checkpoint ladder, identical outcome",
		Columns: []string{"case", "format", "mode", "records", "crash points", "ckpt recoveries", "torn tails", "recovered ok"},
		Pass:    true,
	}
	root, err := os.MkdirTemp("", "ckpt-soak")
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	defer os.RemoveAll(root)
	caseDir := func(name string) string {
		dir := filepath.Join(root, name)
		os.RemoveAll(dir)
		return dir
	}

	// Part 1: single-instance crash sweep over a segmented log.
	type workload struct {
		name string
		mk   func() (*engine.Engine, string)
	}
	for _, w := range []workload{{"travel saga abort@book_car", travelWorkload}, {"flexible Fig.3 abort@T6", flexibleWorkload}} {
		// Baseline on an in-memory log for trail, output and record count.
		e, proc := w.mk()
		clean := &wal.MemLog{}
		base, err := e.CreateInstance(proc, nil, clean)
		if err == nil {
			err = base.Start()
		}
		if err != nil || !base.Finished() {
			r.Pass = false
			r.Err = fmt.Errorf("E9 %s baseline: %v", w.name, err)
			return r
		}
		baseTrail := fmt.Sprint(trailStrings(base))
		total := clean.Len()

		for _, format := range []wal.Format{wal.FormatText, wal.FormatBinary} {
			// run executes the workload over a fresh durable segmented log on
			// a file system that dies at byte b (0: never).
			dir := filepath.Join(root, "sweep")
			reg := obs.NewRegistry()
			run := func(b int64) (*wal.SegmentedLog, error) {
				os.RemoveAll(dir)
				slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(4), wal.SegmentFormat(format), wal.SegmentFsync(),
					wal.SegmentFS(wal.NewFaultFS(wal.FaultCrash, b)), wal.SegmentMetricsRegistry(reg))
				if err != nil {
					return nil, err
				}
				e2, proc2 := w.mk()
				inst, err := e2.CreateInstance(proc2, nil, slog)
				if err == nil {
					err = inst.Start()
				}
				return slog, err
			}
			slog, err := run(0)
			if err == nil {
				err = slog.Close()
			}
			ends, ferr := wal.FrameEnds(dir)
			if err != nil || ferr != nil || len(ends) != total {
				r.fail(fmt.Errorf("E9 %s/%s crash-free run: %v, %d frames (%v)", w.name, format, err, len(ends), ferr))
				return r
			}
			for _, mode := range crashModes {
				okAll := true
				ckptUsed := 0
				repaired := 0
				for crashAt := 1; crashAt < total && okAll; crashAt++ {
					slog, err := run(wal.CrashCut(ends, crashAt, mode.torn))
					if !errors.Is(err, wal.ErrCrash) {
						okAll = false
						break
					}
					// Fold the segments sealed at crash time into a checkpoint
					// (the dead log still lists them), then drop the handle.
					ck := engine.NewCheckpointer(slog)
					if err := ck.CheckpointNow(); err != nil {
						okAll = false
						break
					}
					slog.Close()
					e3, _ := w.mk()
					insts, h, err := engine.RecoverLadder(e3, wal.Ladder{Path: dir}, nil)
					if err != nil || len(insts) != 1 || mode.torn != (h.Torn > 0) {
						okAll = false // a torn tail is detected, a clean cut leaves none
						break
					}
					if h.Checkpoint != nil {
						ckptUsed++
					}
					if h.Torn > 0 {
						repaired++
					}
					rec := insts[0]
					if !rec.Finished() || fmt.Sprint(trailStrings(rec)) != baseTrail || !rec.Output().Equal(base.Output()) {
						okAll = false
						break
					}
				}
				if ckptUsed == 0 {
					okAll = false // late crash points must have sealed segments to fold
				}
				if !okAll {
					r.Pass = false
				}
				r.AddRow(w.name, format.String(), mode.name, fmt.Sprint(total), fmt.Sprint(total-1),
					fmt.Sprint(ckptUsed), fmt.Sprint(repaired), yesNo(okAll))
			}
			if !batchPathRan(reg) {
				r.fail(fmt.Errorf("E9 %s/%s: the sweep never drove SegmentedLog.AppendBatch with a multi-record barrier", w.name, format))
			}
		}
	}

	// Part 1b: mixed-format handoff. Session one runs instance A over a
	// text-format segmented directory and shuts down cleanly; session two
	// reopens the same directory with the binary format (old segments keep
	// their text headers, new ones are binary) and crashes mid-way through
	// instance B with a torn frame on disk. A checkpoint pass plus the
	// ladder's repaired tail must then recover both instances across the
	// framing switch with zero acknowledged appends lost.
	mixedOK := func() error {
		e, proc := travelWorkload()
		clean := &wal.MemLog{}
		base, err := e.CreateInstance(proc, nil, clean)
		if err == nil {
			err = base.Start()
		}
		if err != nil || !base.Finished() {
			return fmt.Errorf("baseline: %v", err)
		}
		baseTrail := fmt.Sprint(trailStrings(base))
		total := clean.Len()

		// sessions runs both eras in a fresh directory, the second on a file
		// system that dies at byte b of what that era writes (0: never). It
		// returns the text era's size and what stopped the run: instance B's
		// error, or a setup error.
		dir := filepath.Join(root, "mixed")
		sessions := func(b int64) (int64, error) {
			os.RemoveAll(dir)

			// Session one: text era. Instance A runs to completion.
			slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(4))
			if err != nil {
				return 0, err
			}
			e1, proc1 := travelWorkload()
			instA, err := e1.CreateInstance(proc1, nil, slog)
			if err == nil {
				err = instA.Start()
			}
			if cerr := slog.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return 0, fmt.Errorf("text era: %v", err)
			}
			textBytes := segmentBytes(dir)

			// Session two: reopen binary, durable. Instance B crashes with a
			// torn frame in a binary segment while the text history sits below.
			slog2, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(4), wal.SegmentFormat(wal.FormatBinary),
				wal.SegmentFsync(), wal.SegmentFS(wal.NewFaultFS(wal.FaultCrash, b)))
			if err != nil {
				return 0, err
			}
			defer slog2.Close()
			instB, err := e1.CreateInstance(proc1, nil, slog2)
			if err == nil {
				err = instB.Start()
			}
			if cerr := engine.NewCheckpointer(slog2).CheckpointNow(); cerr != nil {
				return 0, cerr
			}
			return textBytes, err
		}
		textBytes, err := sessions(0)
		if err != nil {
			return err
		}
		ends, err := wal.FrameEnds(dir)
		if err != nil || len(ends) != 2*total {
			return fmt.Errorf("crash-free run: %d frames, %v", len(ends), err)
		}

		for crashAt := 1; crashAt < total; crashAt++ {
			if _, err := sessions(wal.CrashCut(ends, total+crashAt, true) - textBytes); !errors.Is(err, wal.ErrCrash) {
				return fmt.Errorf("crashAt %d: want crash, got %v", crashAt, err)
			}

			e3, _ := travelWorkload()
			insts, h, err := engine.RecoverLadder(e3, wal.Ladder{Path: dir}, nil)
			if err != nil {
				return err
			}
			if h.Torn == 0 {
				return fmt.Errorf("crashAt %d: torn binary tail not detected", crashAt)
			}
			doneN := len(h.Done())
			if len(insts)+doneN != 2 {
				return fmt.Errorf("crashAt %d: recovered %d + done %d != 2", crashAt, len(insts), doneN)
			}
			for _, rec := range insts {
				if !rec.Finished() || fmt.Sprint(trailStrings(rec)) != baseTrail || !rec.Output().Equal(base.Output()) {
					return fmt.Errorf("crashAt %d: mixed-format recovery diverges from baseline", crashAt)
				}
			}
		}
		return nil
	}()
	if mixedOK != nil {
		r.Pass = false
		if r.Err == nil {
			r.Err = fmt.Errorf("E9 mixed-format handoff: %w", mixedOK)
		}
	}
	r.AddRow("mixed: text era then binary reopen, torn binary tail", "text+binary", "short write",
		"-", "-", "-", "-", yesNo(mixedOK == nil))

	// Part 2: the fallback ladder. A clean travel run checkpointed every 4
	// records leaves a chain of checkpoints (newest two retained); damaging
	// them rung by rung must degrade gracefully, and a leftover .tmp from
	// an interrupted checkpoint write must be ignored.
	ladderOK := func() error {
		e, proc := travelWorkload()
		clean := &wal.MemLog{}
		base, err := e.CreateInstance(proc, nil, clean)
		if err == nil {
			err = base.Start()
		}
		if err != nil {
			return err
		}
		baseTrail := fmt.Sprint(trailStrings(base))

		dir := caseDir("ladder")
		slog, err := wal.OpenSegmentedLog(dir)
		if err != nil {
			return err
		}
		ck := engine.NewCheckpointer(slog, engine.CheckpointEveryRecords(4))
		wl := &checkpointingLog{inner: slog, ck: ck, every: 4}
		e2, proc2 := travelWorkload()
		inst, err := e2.CreateInstance(proc2, nil, wl)
		if err == nil {
			err = inst.Start()
		}
		if err != nil || wl.err != nil {
			return fmt.Errorf("checkpointed run: %v / %v", err, wl.err)
		}
		if err := slog.Close(); err != nil {
			return err
		}
		cps, err := wal.ListCheckpoints(dir)
		if err != nil {
			return err
		}
		if len(cps) != 2 {
			return fmt.Errorf("retention kept %d checkpoints, want 2", len(cps))
		}

		// A leftover temp file from an interrupted checkpoint write must
		// not shadow the real newest checkpoint.
		if err := os.WriteFile(filepath.Join(dir, "ckpt-999999.ckpt.tmp"), []byte("garbage"), 0o644); err != nil {
			return err
		}
		h, err := wal.Ladder{Path: dir}.Read()
		if err != nil || h.Checkpoint == nil {
			return fmt.Errorf("load with .tmp leftover: %v", err)
		}
		if h.Checkpoint.Seq != cps[1].Seq || h.Rung != wal.SourceNewestCheckpoint {
			return fmt.Errorf(".tmp leftover changed checkpoint selection: got seq %d (%s) want %d", h.Checkpoint.Seq, h.Rung, cps[1].Seq)
		}

		// Tear the newest checkpoint: the ladder must fall back to the
		// previous one, whose tail segments retention kept on disk.
		raw, err := os.ReadFile(cps[1].Path)
		if err != nil {
			return err
		}
		if err := os.WriteFile(cps[1].Path, raw[:len(raw)/2], 0o644); err != nil {
			return err
		}
		before := fallbackCount()
		e3, _ := travelWorkload()
		insts, h, err := engine.RecoverLadder(e3, wal.Ladder{Path: dir}, nil)
		if err != nil || h.Checkpoint == nil {
			return fmt.Errorf("fallback recovery: %v", err)
		}
		if h.Checkpoint.Seq != cps[0].Seq || h.Rung != wal.SourcePreviousCheckpoint {
			return fmt.Errorf("fell back to seq %d (%s), want %d", h.Checkpoint.Seq, h.Rung, cps[0].Seq)
		}
		if fallbackCount() <= before {
			return errors.New("fallback counter did not advance")
		}
		if len(insts)+len(h.Done()) != 1 {
			return fmt.Errorf("recovered %d + done %d != 1", len(insts), len(h.Done()))
		}
		for _, rec := range insts {
			if !rec.Finished() || fmt.Sprint(trailStrings(rec)) != baseTrail || !rec.Output().Equal(base.Output()) {
				return errors.New("previous-checkpoint recovery diverges from baseline")
			}
		}
		return nil
	}()
	if ladderOK != nil {
		r.Pass = false
		r.Err = fmt.Errorf("E9 ladder: %w", ladderOK)
	}
	r.AddRow("ladder: .tmp ignored, torn newest -> previous", "text", "-", "-", "2", "1", "1", yesNo(ladderOK == nil))

	// Bottom rung: a run with a single checkpoint (nothing pruned yet)
	// whose checkpoint is damaged must recover by full replay.
	fullOK := func() error {
		e, proc := travelWorkload()
		clean := &wal.MemLog{}
		base, err := e.CreateInstance(proc, nil, clean)
		if err == nil {
			err = base.Start()
		}
		if err != nil {
			return err
		}
		baseTrail := fmt.Sprint(trailStrings(base))

		dir := caseDir("fullreplay")
		slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(4))
		if err != nil {
			return err
		}
		e2, proc2 := travelWorkload()
		inst, err := e2.CreateInstance(proc2, nil, slog)
		if err == nil {
			err = inst.Start()
		}
		if err != nil {
			return err
		}
		ck := engine.NewCheckpointer(slog)
		if err := ck.CheckpointNow(); err != nil {
			return err
		}
		if err := slog.Close(); err != nil {
			return err
		}
		cps, err := wal.ListCheckpoints(dir)
		if err != nil || len(cps) != 1 {
			return fmt.Errorf("want exactly 1 checkpoint, got %v (%v)", cps, err)
		}
		raw, err := os.ReadFile(cps[0].Path)
		if err != nil {
			return err
		}
		raw[len(raw)/3] ^= 0x40 // flip a bit: CRC mismatch
		if err := os.WriteFile(cps[0].Path, raw, 0o644); err != nil {
			return err
		}
		before := fallbackCount()
		// With a single checkpoint no segment was ever pruned, so the
		// full-replay rung has the complete history.
		e3, _ := travelWorkload()
		insts, h, err := engine.RecoverLadder(e3, wal.Ladder{Path: dir}, nil)
		if err != nil || len(insts) != 1 {
			return fmt.Errorf("full replay: %v (%d instances)", err, len(insts))
		}
		if h.Checkpoint != nil || h.Rung != wal.SourceFullReplay {
			return errors.New("damaged checkpoint not rejected")
		}
		if fallbackCount() <= before {
			return errors.New("fallback counter did not advance")
		}
		rec := insts[0]
		if !rec.Finished() || fmt.Sprint(trailStrings(rec)) != baseTrail || !rec.Output().Equal(base.Output()) {
			return errors.New("full-replay recovery diverges from baseline")
		}
		return nil
	}()
	if fullOK != nil {
		r.Pass = false
		if r.Err == nil {
			r.Err = fmt.Errorf("E9 full-replay rung: %w", fullOK)
		}
	}
	r.AddRow("ladder: only ckpt damaged -> full replay", "text", "-", "-", "1", "0", "0", yesNo(fullOK == nil))

	// Part 3: fleet over a group-committed segmented log, crashed at every
	// batch boundary (the E8 durability contract, extended to checkpoints).
	const fleet = 4
	const chainN = 5
	proc := Chain("e9", chainN)
	total := fleet * (2*chainN + 2)

	// run executes the fleet over a fresh group-committed segmented log on
	// a file system that dies at byte b (0: never).
	dir := filepath.Join(root, "fleet")
	run := func(b int64) (*ackTrackingLog, *wal.SegmentedLog, *engine.FleetResult, error) {
		os.RemoveAll(dir)
		slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(8), wal.SegmentFS(wal.NewFaultFS(wal.FaultCrash, b)))
		if err != nil {
			return nil, nil, nil, err
		}
		g := wal.NewGroupCommitSegmented(slog, wal.GroupWithMetricsRegistry(obs.NewRegistry()))
		track := &ackTrackingLog{inner: g}
		res, err := runFleet(engineWith(proc), proc.Name, fleet, fleet, track)
		return track, slog, res, err
	}
	track, slog, baseRes, err := run(0)
	if err == nil {
		err = slog.Close()
	}
	if err != nil || baseRes.Finished != fleet {
		r.fail(fmt.Errorf("E9 fleet baseline: %v (%v)", err, baseRes))
		return r
	}
	baseOut := baseRes.Instances[0].Output()
	ends, err := wal.FrameEnds(dir)
	if err != nil || len(ends) != total || !track.batched() {
		r.fail(fmt.Errorf("E9 fleet baseline: %d frames (%v), batch path ran: %v", len(ends), err, track.batched()))
		return r
	}

	for _, mode := range crashModes {
		okAll := true
		ckptUsed := 0
		repaired := 0
		for crashAt := 1; crashAt < total && okAll; crashAt++ {
			b := wal.CrashCut(ends, crashAt, mode.torn)
			track, slog, res, err := run(b)
			if err != nil || res.Failed == 0 || !errors.Is(res.Err, wal.ErrCrash) {
				okAll = false
				break
			}
			// One checkpoint pass over whatever sealed before the crash.
			// prev == nil, so no segment is pruned and the full history
			// stays readable for the durability check below.
			ck := engine.NewCheckpointer(slog)
			if err := ck.CheckpointNow(); err != nil {
				okAll = false
				break
			}
			slog.Close()
			clean, cerr := crashLeft(dir, b)
			whole, err := wal.Ladder{Path: dir, Full: true}.Recover()
			if cerr != nil || err != nil || (whole.Torn == 0) != clean {
				okAll = false
				break
			}
			if whole.Torn > 0 {
				repaired++
			}
			started := make(map[string]bool)
			for _, rec := range whole.Tail {
				started[rec.Instance] = true
			}
			if track.lost(whole.Tail) > 0 {
				okAll = false // an acknowledged append was lost
				break
			}
			insts, h, err := engine.RecoverLadder(engineWith(proc), wal.Ladder{Path: dir}, nil)
			if err != nil || len(insts)+len(h.Done()) != len(started) {
				okAll = false
				break
			}
			if h.Checkpoint != nil {
				ckptUsed++
			}
			for _, inst := range insts {
				if !inst.Finished() || !inst.Output().Equal(baseOut) {
					okAll = false
					break
				}
			}
		}
		if !okAll {
			r.Pass = false
		}
		r.AddRow(fmt.Sprintf("fleet %dx chain(%d) group commit", fleet, chainN), "text", mode.name,
			fmt.Sprint(total), fmt.Sprint(total-1), fmt.Sprint(ckptUsed), fmt.Sprint(repaired), yesNo(okAll))
	}
	return r
}

// crashedFleet leaves in dir what a server leaves that dies half-way
// through the last of n instances of proc, run one after another over a
// segmented log (with a checkpoint pass every 64 records when ckpt is
// set): n-1 whole instances, half of the last and a torn record after it.
// mk builds the engine of one run. The run happens twice — crash-free in
// dir+".clean" for the byte to die at, then over wal.FaultCrash — on the
// log as B10 and B16 measure it, without fsync: the crash surfaces when
// the write buffer next drains, at the latest on Close, and leaves the
// same bytes. It returns the crashed instance's ID.
func crashedFleet(mk func() (*engine.Engine, error), proc, dir string, n, recsPerInst int, ckpt bool) (string, error) {
	run := func(dir string, ckpt bool, b int64) (string, error) {
		fs := wal.NewFaultFS(wal.FaultCrash, b)
		slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(64), wal.SegmentFS(fs))
		if err != nil {
			return "", err
		}
		var log wal.Log = slog
		var wl *checkpointingLog
		if ckpt {
			ck := engine.NewCheckpointer(slog, engine.CheckpointEveryRecords(64))
			wl = &checkpointingLog{inner: slog, ck: ck, every: 64}
			log = wl
		}
		e, err := mk()
		if err != nil {
			return "", err
		}
		id := ""
		for i := 0; i < n; i++ {
			inst, err := e.CreateInstance(proc, nil, log)
			if err == nil {
				id, err = inst.ID(), inst.Start()
			}
			if err != nil && !(i == n-1 && errors.Is(err, wal.ErrCrash)) {
				return "", err
			}
		}
		if wl != nil {
			if wl.err != nil {
				return "", wl.err
			}
			// A final pass folds the last sealed segments, as the
			// background checkpointer would have before the crash — without
			// the record trigger: a dead log rotates nothing.
			if err := engine.NewCheckpointer(slog).CheckpointNow(); err != nil {
				return "", err
			}
		}
		if err := slog.Close(); (err != nil) != fs.Fired() || fs.Fired() != (b > 0) {
			return "", fmt.Errorf("crash at byte %d: fired=%v, close: %v", b, fs.Fired(), err)
		}
		return id, nil
	}
	clean := dir + ".clean"
	if _, err := run(clean, false, 0); err != nil {
		return "", err
	}
	ends, err := wal.FrameEnds(clean)
	os.RemoveAll(clean)
	if err != nil || len(ends) != n*recsPerInst {
		return "", fmt.Errorf("crash-free run: %d frames, %v", len(ends), err)
	}
	return run(dir, ckpt, wal.CrashCut(ends, (n-1)*recsPerInst+recsPerInst/2, true))
}

// RunB10 measures what checkpoints buy at restart: recovery wall time and
// replayed record count as history length grows, with and without
// checkpoints. Each configuration runs N chain instances sequentially
// through a segmented log, crashing mid-way through the last instance;
// the checkpointed variant runs a deterministic checkpoint pass every 64
// appends (retention keeps two checkpoints and prunes covered segments,
// which the on-disk bytes column shows). The acceptance gate is the
// paper-level claim that restart work is bounded by the checkpoint
// period, not the history: at the largest history the checkpointed
// recovery must replay at least 10x fewer records than full replay.
func RunB10() *Report {
	r := &Report{
		ID:      "B10",
		Title:   "bounded restart: recovery time and replayed records vs. history length, with/without checkpoints",
		Columns: []string{"instances", "history records", "mode", "recovery wall", "records replayed", "wal bytes", "replay ratio x"},
		Pass:    true,
	}
	const chainN = 20
	proc := Chain("b10", chainN)
	recsPerInst := 2*chainN + 2

	root, err := os.MkdirTemp("", "wfbench-ckpt")
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	defer os.RemoveAll(root)

	// run executes n instances sequentially, crashing mid-way through the
	// last, over a fresh segmented log in dir.
	run := func(dir string, n int, ckpt bool) error {
		_, err := crashedFleet(func() (*engine.Engine, error) { return engineWith(proc), nil },
			proc.Name, dir, n, recsPerInst, ckpt)
		return err
	}

	// recoverTimed restarts a fresh engine from dir through the ladder.
	recoverTimed := func(dir string) ([]*engine.Instance, *wal.History, time.Duration, error) {
		start := time.Now()
		insts, h, err := engine.RecoverLadder(engineWith(proc), wal.Ladder{Path: dir}, nil)
		return insts, h, time.Since(start), err
	}

	for _, n := range []int{8, 32, 128} {
		history := n * recsPerInst

		// Without checkpoints: full replay of the whole history.
		dirA := filepath.Join(root, fmt.Sprintf("full-%d", n))
		if err := run(dirA, n, false); err != nil {
			r.Pass = false
			r.Err = fmt.Errorf("B10 n=%d full: %w", n, err)
			return r
		}
		bytesA := segmentBytes(dirA)
		instsA, hA, wallA, err := recoverTimed(dirA)
		if err != nil || len(instsA) != n {
			r.Pass = false
			r.Err = fmt.Errorf("B10 n=%d full recovery: %v (%d instances)", n, err, len(instsA))
			return r
		}

		// With checkpoints: newest checkpoint + segment tail.
		dirB := filepath.Join(root, fmt.Sprintf("ckpt-%d", n))
		if err := run(dirB, n, true); err != nil {
			r.Pass = false
			r.Err = fmt.Errorf("B10 n=%d ckpt: %w", n, err)
			return r
		}
		bytesB := segmentBytes(dirB)
		instsB, hB, wallB, err := recoverTimed(dirB)
		if err != nil || hB.Checkpoint == nil {
			r.Pass = false
			r.Err = fmt.Errorf("B10 n=%d ckpt recovery: %v", n, err)
			return r
		}
		if len(instsB)+len(hB.Done()) != n {
			r.Pass = false
			r.Err = fmt.Errorf("B10 n=%d: recovered %d + done %d != %d", n, len(instsB), len(hB.Done()), n)
			return r
		}
		replayedA := hA.Len()
		replayedB := hB.Len()
		ratio := float64(replayedA) / float64(replayedB)

		r.AddRow(fmt.Sprint(n), fmt.Sprint(history), "full replay",
			fmtNs(float64(wallA.Nanoseconds())), fmt.Sprint(replayedA), fmt.Sprint(bytesA), "1.0")
		r.AddRow(fmt.Sprint(n), fmt.Sprint(history), "checkpointed",
			fmtNs(float64(wallB.Nanoseconds())), fmt.Sprint(replayedB), fmt.Sprint(bytesB),
			fmt.Sprintf("%.1f", ratio))
		r.AddSample(Sample{Name: fmt.Sprintf("B10/n=%d/full", n),
			NsOp: float64(wallA.Nanoseconds()), Iters: 1,
			RecordsPerSec: float64(replayedA) / wallA.Seconds()})
		r.AddSample(Sample{Name: fmt.Sprintf("B10/n=%d/ckpt", n),
			NsOp: float64(wallB.Nanoseconds()), Iters: 1,
			RecordsPerSec: float64(replayedB) / wallB.Seconds()})
		if n >= 128 && ratio < 10 {
			r.Pass = false
			r.Err = fmt.Errorf("B10: n=%d replay ratio %.1fx, want >= 10x", n, ratio)
		}
	}
	return r
}
