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
// every `every` acknowledged appends — a deterministic stand-in for the
// background Checkpointer, so soak iterations are reproducible down to
// which records each checkpoint covers.
type checkpointingLog struct {
	inner wal.Log
	ck    *engine.Checkpointer
	every int
	n     int
	err   error
}

func (l *checkpointingLog) Append(rec wal.Record) error {
	if err := l.inner.Append(rec); err != nil {
		return err
	}
	l.n++
	if l.every > 0 && l.n%l.every == 0 {
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
//     flexible transaction) crash at every record boundary — clean and
//     short-write, in both the text and the binary record framing — over a
//     SegmentedLog; a checkpoint pass folds the segments sealed at crash
//     time (the checkpointer reads only sealed, immutable files, so a
//     post-crash pass is byte-identical to a background pass that ran just
//     before the crash), and recovery seeds from the checkpoint plus the
//     repaired tail. Crash points inside the compensation phase exercise
//     checkpoints taken mid-compensation; crash points just after a
//     rotation leave an empty or torn fresh segment behind.
//   - a mixed-format handoff: a text-era segment directory is reopened
//     with the binary format, crashed at every binary record boundary with
//     a torn frame, and both the text-era and binary-era instances must
//     recover across the framing switch.
//   - the ladder cases: a leftover checkpoint .tmp file is ignored, a
//     torn newest checkpoint falls back to the previous one, and a run
//     whose only checkpoint is damaged (nothing pruned yet) falls all the
//     way back to full replay.
//   - a fleet of 4 chain instances shares one group-committed segmented
//     log, crashed at every batch boundary; no acknowledged append may be
//     lost and RecoverAllFromCheckpoint must restore or Done-account every
//     instance.
//
// Every recovery must reproduce the baseline's audit trail and a
// bit-identical output container.
func RunE9() *Report {
	r := &Report{
		ID:      "E9",
		Title:   "checkpointed recovery soak: segmented WAL + checkpoint ladder, identical outcome at every crash point",
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
			for _, mode := range []struct {
				name       string
				shortWrite bool
			}{{"clean crash", false}, {"short write", true}} {
				okAll := true
				ckptUsed := 0
				repaired := 0
				for crashAt := 1; crashAt < total && okAll; crashAt++ {
					dir := caseDir("sweep")
					slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(4), wal.SegmentFormat(format))
					if err != nil {
						okAll = false
						break
					}
					fl := wal.NewSegmentedFaultLog(slog, crashAt, mode.shortWrite)
					e2, proc2 := w.mk()
					inst, err := e2.CreateInstance(proc2, nil, fl)
					if err != nil {
						okAll = false
						break
					}
					if err := inst.Start(); !errors.Is(err, wal.ErrCrash) {
						okAll = false
						break
					}
					// Fold the segments sealed at crash time into a checkpoint,
					// then flush the torn active segment to disk.
					ck := engine.NewCheckpointer(slog)
					if err := ck.CheckpointNow(); err != nil {
						okAll = false
						break
					}
					if err := slog.Close(); err != nil {
						okAll = false
						break
					}
					e3, _ := w.mk()
					insts, h, err := engine.RecoverLadder(e3, wal.Ladder{Path: dir}, nil)
					if err != nil || len(insts) != 1 {
						okAll = false
						break
					}
					if h.Checkpoint != nil {
						ckptUsed++
					}
					if mode.shortWrite && h.Torn == 0 {
						okAll = false // the torn tail must have been detected
						break
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
				verdict := "yes"
				if !okAll {
					verdict = "NO"
				}
				r.AddRow(w.name, format.String(), mode.name, fmt.Sprint(total), fmt.Sprint(total-1),
					fmt.Sprint(ckptUsed), fmt.Sprint(repaired), verdict)
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

		for crashAt := 1; crashAt < total; crashAt++ {
			dir := caseDir("mixed")

			// Session one: text era. Instance A runs to completion.
			slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(4))
			if err != nil {
				return err
			}
			e1, proc1 := travelWorkload()
			instA, err := e1.CreateInstance(proc1, nil, slog)
			if err == nil {
				err = instA.Start()
			}
			if err != nil || !instA.Finished() {
				return fmt.Errorf("crashAt %d text era: %v", crashAt, err)
			}
			if err := slog.Close(); err != nil {
				return err
			}

			// Session two: reopen binary. Instance B crashes with a torn
			// frame in a binary segment while the text history sits below.
			slog2, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(4), wal.SegmentFormat(wal.FormatBinary))
			if err != nil {
				return err
			}
			fl := wal.NewSegmentedFaultLog(slog2, crashAt, true)
			instB, err := e1.CreateInstance(proc1, nil, fl)
			if err != nil {
				return err
			}
			if err := instB.Start(); !errors.Is(err, wal.ErrCrash) {
				return fmt.Errorf("crashAt %d: want crash, got %v", crashAt, err)
			}
			ck := engine.NewCheckpointer(slog2)
			if err := ck.CheckpointNow(); err != nil {
				return err
			}
			if err := slog2.Close(); err != nil {
				return err
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
	mixedVerdict := "yes"
	if mixedOK != nil {
		mixedVerdict = "NO"
		r.Pass = false
		if r.Err == nil {
			r.Err = fmt.Errorf("E9 mixed-format handoff: %w", mixedOK)
		}
	}
	r.AddRow("mixed: text era then binary reopen, torn binary tail", "text+binary", "short write",
		"-", "-", "-", "-", mixedVerdict)

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
	verdict := "yes"
	if ladderOK != nil {
		verdict = "NO"
		r.Pass = false
		r.Err = fmt.Errorf("E9 ladder: %w", ladderOK)
	}
	r.AddRow("ladder: .tmp ignored, torn newest -> previous", "text", "-", "-", "2", "1", "1", verdict)

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
	verdict = "yes"
	if fullOK != nil {
		verdict = "NO"
		r.Pass = false
		if r.Err == nil {
			r.Err = fmt.Errorf("E9 full-replay rung: %w", fullOK)
		}
	}
	r.AddRow("ladder: only ckpt damaged -> full replay", "text", "-", "-", "1", "0", "0", verdict)

	// Part 3: fleet over a group-committed segmented log, crashed at every
	// batch boundary (the E8 durability contract, extended to checkpoints).
	const fleet = 4
	const chainN = 5
	proc := Chain("e9", chainN)
	total := fleet * (2*chainN + 2)

	baseE := NewEngine()
	if err := baseE.RegisterProcess(proc); err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	baseRes, err := baseE.RunFleet(engine.FleetOptions{Process: proc.Name, N: 1})
	if err != nil || baseRes.Finished != 1 {
		r.Pass = false
		r.Err = fmt.Errorf("E9 fleet baseline: %v (%v)", err, baseRes)
		return r
	}
	baseOut := baseRes.Instances[0].Output()

	for _, mode := range []struct {
		name       string
		shortWrite bool
	}{{"clean crash", false}, {"short write", true}} {
		okAll := true
		ckptUsed := 0
		repaired := 0
		for crashAt := 1; crashAt < total && okAll; crashAt++ {
			dir := caseDir("fleet")
			slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(8))
			if err != nil {
				okAll = false
				break
			}
			g := wal.NewGroupCommitSegmented(slog,
				wal.GroupCrashAfter(crashAt, mode.shortWrite),
				wal.GroupWithMetricsRegistry(obs.NewRegistry()))
			track := &ackTrackingLog{inner: g}
			e := NewEngine()
			if err := e.RegisterProcess(proc); err != nil {
				okAll = false
				break
			}
			res, err := e.RunFleet(engine.FleetOptions{
				Process: proc.Name, N: fleet, Parallel: fleet, Log: track,
			})
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
			if err := slog.Close(); err != nil {
				okAll = false
				break
			}
			whole, err := wal.Ladder{Path: dir, Full: true}.Recover()
			if err != nil {
				okAll = false
				break
			}
			if whole.Torn > 0 {
				repaired++
			}
			onDisk := make(map[string]bool, len(whole.Tail))
			started := make(map[string]bool)
			for _, rec := range whole.Tail {
				onDisk[recKey(rec)] = true
				started[rec.Instance] = true
			}
			track.mu.Lock()
			acked := append([]wal.Record(nil), track.acked...)
			track.mu.Unlock()
			for _, rec := range acked {
				if !onDisk[recKey(rec)] {
					okAll = false // an acknowledged append was lost
				}
			}
			if !okAll {
				break
			}
			e2 := NewEngine()
			if err := e2.RegisterProcess(proc); err != nil {
				okAll = false
				break
			}
			insts, h, err := engine.RecoverLadder(e2, wal.Ladder{Path: dir}, nil)
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
		verdict := "yes"
		if !okAll {
			verdict = "NO"
		}
		r.AddRow(fmt.Sprintf("fleet %dx chain(%d) group commit", fleet, chainN), "text", mode.name,
			fmt.Sprint(total), fmt.Sprint(total-1), fmt.Sprint(ckptUsed), fmt.Sprint(repaired), verdict)
	}
	return r
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

	// run executes n instances sequentially (crashing mid-way through the
	// last) over a fresh segmented log in dir, checkpointing every
	// ckptEvery appends when > 0.
	run := func(dir string, n, ckptEvery int) error {
		slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(64))
		if err != nil {
			return err
		}
		var log wal.Log = slog
		var wl *checkpointingLog
		if ckptEvery > 0 {
			ck := engine.NewCheckpointer(slog, engine.CheckpointEveryRecords(64))
			wl = &checkpointingLog{inner: slog, ck: ck, every: ckptEvery}
			log = wl
		}
		e := NewEngine()
		if err := e.RegisterProcess(proc); err != nil {
			return err
		}
		for i := 0; i < n-1; i++ {
			inst, err := e.CreateInstance(proc.Name, nil, log)
			if err == nil {
				err = inst.Start()
			}
			if err != nil {
				return err
			}
		}
		fl := wal.NewSegmentedFaultLog(slog, recsPerInst/2, true)
		inst, err := e.CreateInstance(proc.Name, nil, fl)
		if err != nil {
			return err
		}
		if err := inst.Start(); !errors.Is(err, wal.ErrCrash) {
			return fmt.Errorf("want crash, got %v", err)
		}
		if wl != nil {
			if wl.err != nil {
				return wl.err
			}
			// A final pass folds the last sealed segments, as the
			// background checkpointer would have before the crash.
			if err := wl.ck.CheckpointNow(); err != nil {
				return err
			}
		}
		return slog.Close()
	}

	// recoverTimed restarts a fresh engine from dir through the ladder.
	recoverTimed := func(dir string) ([]*engine.Instance, *wal.History, time.Duration, error) {
		start := time.Now()
		e := NewEngine()
		if err := e.RegisterProcess(proc); err != nil {
			return nil, nil, 0, err
		}
		insts, h, err := engine.RecoverLadder(e, wal.Ladder{Path: dir}, nil)
		return insts, h, time.Since(start), err
	}

	for _, n := range []int{8, 32, 128} {
		history := n * recsPerInst

		// Without checkpoints: full replay of the whole history.
		dirA := filepath.Join(root, fmt.Sprintf("full-%d", n))
		if err := run(dirA, n, 0); err != nil {
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
		if err := run(dirB, n, 64); err != nil {
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
