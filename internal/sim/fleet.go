package sim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wal"
)

// b9Chain is the B9/E8 reference workload length: Chain(n) writes
// created + n×(started+activity) + done = 2n+2 WAL records per instance.
const b9Chain = 20

// RunB9 measures fleet throughput on the durable path: N instances of a
// chain workload executed by a one-shard engine.Fleet against a shared on-disk
// WAL, comparing per-record fsync (FileLog+WithFsync — every record
// waits out its own disk sync) with group commit (GroupCommitLog — one
// sync per batch, batch size self-tuned to the fsync latency by commit
// pipelining). The headline acceptance number is the fleet-32 speedup,
// which must be at least 5× records/sec; "mean batch" shows the fsync
// amortization that produces it.
func RunB9() *Report {
	r := &Report{
		ID:      "B9",
		Title:   "fleet throughput: group commit vs. per-record fsync on a shared durable WAL",
		Columns: []string{"fleet", "parallel", "mode", "wall", "records/sec", "instances/sec", "mean batch", "speedup x"},
		Pass:    true,
	}
	dir, err := os.MkdirTemp("", "wfbench-fleet")
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	defer os.RemoveAll(dir)

	proc := Chain("b9", b9Chain)
	recsPerInst := 2*b9Chain + 2

	type outcome struct {
		recsPerSec  float64
		instsPerSec float64
		wallNs      float64
		meanBatch   float64 // 0 for per-record mode
	}
	run := func(fleet, parallel int, group bool) (outcome, error) {
		path := filepath.Join(dir, "fleet.wal")
		flog, err := wal.OpenFileLog(path, wal.WithFsync())
		if err != nil {
			return outcome{}, err
		}
		var log wal.Log = flog
		reg := obs.NewRegistry()
		var g *wal.GroupCommitLog
		if group {
			g = wal.NewGroupCommitLog(flog, wal.GroupWithMetricsRegistry(reg))
			log = g
		}
		e := NewEngine()
		if err := e.RegisterProcess(proc); err != nil {
			return outcome{}, err
		}
		res, err := runFleet(e, proc.Name, fleet, parallel, log)
		if err == nil && res.Failed > 0 {
			err = fmt.Errorf("%d of %d instances failed: %v", res.Failed, fleet, res.Err)
		}
		if g != nil {
			if cerr := g.Close(); err == nil {
				err = cerr
			}
		} else if cerr := flog.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return outcome{}, err
		}
		records := float64(fleet * recsPerInst)
		secs := res.Elapsed.Seconds()
		out := outcome{
			recsPerSec:  records / secs,
			instsPerSec: float64(fleet) / secs,
			wallNs:      float64(res.Elapsed.Nanoseconds()),
		}
		if group {
			snap := reg.Snapshot()
			if b := snap.Counters["wal.group.batches"]; b > 0 {
				out.meanBatch = float64(snap.Counters["wal.group.records"]) / float64(b)
			}
		}
		return out, nil
	}

	for _, fleet := range []int{1, 8, 32} {
		parallel := fleet
		if parallel > 16 {
			parallel = 16
		}
		perRec, err := run(fleet, parallel, false)
		if err == nil {
			// The per-record baseline warms the file cache; run group mode
			// second so any one-time cost lands on the slower config.
			var grp outcome
			grp, err = run(fleet, parallel, true)
			if err == nil {
				speedup := grp.recsPerSec / perRec.recsPerSec
				r.AddRow(fmt.Sprint(fleet), fmt.Sprint(parallel), "per-record fsync",
					fmtNs(perRec.wallNs), fmt.Sprintf("%.0f", perRec.recsPerSec),
					fmt.Sprintf("%.1f", perRec.instsPerSec), "-", "1.0")
				r.AddRow(fmt.Sprint(fleet), fmt.Sprint(parallel), "group commit",
					fmtNs(grp.wallNs), fmt.Sprintf("%.0f", grp.recsPerSec),
					fmt.Sprintf("%.1f", grp.instsPerSec),
					fmt.Sprintf("%.1f", grp.meanBatch), fmt.Sprintf("%.1f", speedup))
				r.AddSample(Sample{Name: fmt.Sprintf("B9/fleet=%d/per-record", fleet),
					NsOp: perRec.wallNs, Iters: 1, RecordsPerSec: perRec.recsPerSec})
				r.AddSample(Sample{Name: fmt.Sprintf("B9/fleet=%d/group", fleet),
					NsOp: grp.wallNs, Iters: 1, RecordsPerSec: grp.recsPerSec})
				if fleet >= 32 && speedup < 5 {
					r.Pass = false
					r.Err = fmt.Errorf("B9: fleet %d group-commit speedup %.1fx, want >= 5x", fleet, speedup)
				}
			}
		}
		if err != nil {
			r.Pass = false
			r.Err = fmt.Errorf("B9 fleet %d: %w", fleet, err)
			return r
		}
	}
	return r
}

// ackTrackingLog wraps a Log and records every acknowledged append — the
// ground truth for the E8 durability invariant: an append whose error was
// nil must survive any later crash. It takes a navigation step's records
// the way the engine hands them over, as one batch — all acknowledged on
// nil, none on error — so the log beneath sees the production path; calls
// counts the acknowledged batches.
type ackTrackingLog struct {
	inner wal.Log
	mu    sync.Mutex
	acked []wal.Record
	calls int
}

func (l *ackTrackingLog) Append(rec wal.Record) error {
	return l.AppendBatch([]wal.Record{rec})
}

func (l *ackTrackingLog) AppendBatch(recs []wal.Record) error {
	err := wal.AppendAll(l.inner, recs)
	if err == nil {
		l.mu.Lock()
		l.acked = append(l.acked, recs...)
		l.calls++
		l.mu.Unlock()
	}
	return err
}

// batched reports whether some acknowledged call carried several records:
// the soak drove the log's AppendBatch, not a per-record fallback.
func (l *ackTrackingLog) batched() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calls > 0 && len(l.acked) > l.calls
}

// engineWith returns a fresh engine that knows proc.
func engineWith(proc *model.Process) *engine.Engine {
	e := NewEngine()
	if err := e.RegisterProcess(proc); err != nil {
		panic(err) // a generated workload always registers
	}
	return e
}

// runFleet runs n instances of process on a one-shard engine.Fleet whose
// instances all append to log (nil: the fleet's own in-memory log). The
// caller still owns log and closes it.
func runFleet(e *engine.Engine, process string, n, parallel int, log wal.Log) (*engine.FleetResult, error) {
	cfg := engine.FleetConfig{Shards: 1, Parallel: parallel}
	if log != nil {
		cfg.WrapLog = func(int, wal.Log) wal.Log { return log }
	}
	f, err := engine.NewFleet(e, cfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Run(process, n, nil)
}

// crashModes are the two ways a sweep kills the server after k records.
var crashModes = []struct {
	name string
	torn bool
}{{"clean crash", false}, {"short write", true}}

func recKey(r wal.Record) string {
	return fmt.Sprintf("%s|%s|%s|%d", r.Instance, r.Type, r.Path, r.Iter)
}

// lost counts the acknowledged appends that are not among recovered.
func (l *ackTrackingLog) lost(recovered []wal.Record) (n int) {
	onDisk := make(map[string]bool, len(recovered))
	for _, rec := range recovered {
		onDisk[recKey(rec)] = true
	}
	for _, rec := range l.acked {
		if !onDisk[recKey(rec)] {
			n++
		}
	}
	return n
}

// crashLeft checks that the crash at byte b left exactly b bytes in the log
// file or segment directory at path, and reports whether b is a frame end
// of what was written — the only cut after which recovery finds no torn
// tail.
func crashLeft(path string, b int64) (clean bool, err error) {
	ends, err := wal.FrameEnds(path)
	if err != nil {
		return false, err
	}
	size := segmentBytes(path)
	if fi, err := os.Stat(path); err == nil && !fi.IsDir() {
		size = fi.Size()
	}
	if size != b {
		return false, fmt.Errorf("crash at byte %d left %d bytes in %s", b, size, path)
	}
	return len(ends) > 0 && ends[len(ends)-1] == b, nil
}

// RunE8 is the group-commit counterpart of the E7 soak: a fleet of
// concurrent chain instances shares one GroupCommitLog over a file system
// that kills the server at a byte (wal.FaultCrash) — at every frame end of
// the crash-free run and inside every frame. A concurrent run does not
// write the same bytes twice, so a cut falls wherever the rerun's batches
// put it: between two batches, between two frames of one, inside a frame.
// After each crash the file is repaired and the fleet recovered with
// RecoverLadder. The soak proves the group-commit durability contract:
//
//   - the crash leaves exactly the bytes below the cut, torn iff the cut is
//     not a frame end of what was written;
//   - no acknowledged append is ever missing from the repaired log
//     (batch-granularity acks: a crashed batch acknowledges nothing);
//   - unacknowledged complete frames from a torn batch may survive, and
//     recovery replays them harmlessly;
//   - every instance with surviving records recovers to the same output
//     as the crash-free baseline.
func RunE8() *Report {
	r := &Report{
		ID:      "E8",
		Title:   "group-commit soak: byte-offset crash at every frame end and torn cut, no acknowledged append lost",
		Columns: []string{"mode", "fleet", "records", "crash points", "torn tails repaired", "acks lost", "recovered ok"},
		Pass:    true,
	}
	const fleet = 4
	const chainN = 5
	proc := Chain("e8", chainN)
	total := fleet * (2*chainN + 2)

	dir, err := os.MkdirTemp("", "wal-gc-soak")
	if err != nil {
		r.fail(err)
		return r
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "soak.wal")

	// run executes the fleet over a fresh group-committed log on a file
	// system that dies at byte b (0: never).
	run := func(b int64) (*ackTrackingLog, *engine.FleetResult, error) {
		flog, err := wal.OpenFileLog(path, wal.WithFS(wal.NewFaultFS(wal.FaultCrash, b)))
		if err != nil {
			return nil, nil, err
		}
		g := wal.NewGroupCommitLog(flog, wal.GroupWithMetricsRegistry(obs.NewRegistry()))
		track := &ackTrackingLog{inner: g}
		res, err := runFleet(engineWith(proc), proc.Name, fleet, fleet, track)
		// A dead log only reports its seal; a crash-free one must close.
		if cerr := g.Close(); b == 0 && err == nil {
			err = cerr
		}
		return track, res, err
	}

	// Crash-free baseline on the stack under test: the expected output of
	// every instance (all run the identical workload) and the crash bytes.
	track, baseRes, err := run(0)
	if err != nil || baseRes.Finished != fleet {
		r.fail(fmt.Errorf("E8 baseline: %v (%v)", err, baseRes))
		return r
	}
	baseOut := baseRes.Instances[0].Output()
	ends, err := wal.FrameEnds(path)
	if err != nil || len(ends) != total || !track.batched() {
		r.fail(fmt.Errorf("E8 baseline: %d frames (%v), batch path ran: %v", len(ends), err, track.batched()))
		return r
	}

	for _, mode := range crashModes {
		okAll := true
		repaired := 0
		acksLost := 0
		for crashAt := 1; crashAt < total && okAll; crashAt++ {
			b := wal.CrashCut(ends, crashAt, mode.torn)
			track, res, err := run(b)
			// The crash must actually have fired and failed at least one
			// instance with ErrCrash.
			if err != nil || res.Failed == 0 || !errors.Is(res.Err, wal.ErrCrash) {
				okAll = false
				break
			}
			clean, cerr := crashLeft(path, b)
			insts, h, err := engine.RecoverLadder(engineWith(proc), wal.Ladder{Path: path}, nil)
			if cerr != nil || err != nil || (h.Torn == 0) != clean {
				okAll = false
				break
			}
			if h.Torn > 0 {
				repaired++
			}
			if n := track.lost(h.Tail); n > 0 {
				acksLost += n
				okAll = false
			}
			for _, inst := range insts {
				if !inst.Finished() || !inst.Output().Equal(baseOut) {
					okAll = false
				}
			}
		}
		if !okAll {
			r.Pass = false
		}
		r.AddRow(mode.name, fmt.Sprint(fleet), fmt.Sprint(total),
			fmt.Sprint(total-1), fmt.Sprint(repaired), fmt.Sprint(acksLost), yesNo(okAll))
	}
	return r
}
