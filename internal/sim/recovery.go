package sim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/wal"
)

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

// crashedFleet leaves in dir what a server leaves that dies half-way
// through the last of n instances of proc, run one after another over a
// segmented log (with a checkpoint pass every 64 records when ckpt is
// set): n-1 whole instances, half of the last and a torn record after it.
// mk builds the engine of one run. The run happens twice — crash-free in
// dir+".clean" for the byte to die at (crashFree), then over a file
// system that dies there — on the log as B10 and B16 measure it, without
// fsync: the crash surfaces when the write buffer next drains, at the
// latest on Close, and leaves the same bytes. It returns the crashed
// instance's ID.
func crashedFleet(mk func() (*engine.Engine, error), proc, dir string, n, recsPerInst int, ckpt bool) (string, error) {
	run := func(dir string, ckpt bool, fs *wal.FaultFS) (string, error) {
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
		if err := slog.Close(); (err != nil) != fs.Fired() {
			return "", fmt.Errorf("crash fired=%v, close: %v", fs.Fired(), err)
		}
		return id, nil
	}
	clean := dir + ".clean"
	defer os.RemoveAll(clean)
	frames, crashAt, err := crashFree(func(fs *wal.FaultFS) (string, error) {
		_, err := run(clean, false, fs)
		return clean, err
	})
	if err != nil || frames != n*recsPerInst {
		return "", fmt.Errorf("crash-free run: %d frames, %v", frames, err)
	}
	fs, _ := crashAt((n-1)*recsPerInst+recsPerInst/2, true)
	id, err := run(dir, ckpt, fs)
	if err == nil && !fs.Fired() {
		err = errors.New("the crash never fired")
	}
	return id, err
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
