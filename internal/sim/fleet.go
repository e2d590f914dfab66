package sim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/wal"
)

// b9Chain is the B9/E8 reference workload length: Chain(n) writes
// created + n×(started+activity) + done = 2n+2 WAL records per instance.
const b9Chain = 20

// RunB9 measures fleet throughput on the durable path: N instances of a
// chain workload executed by engine.RunFleet against a shared on-disk
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
		res, err := e.RunFleet(engine.FleetOptions{
			Process: proc.Name, N: fleet, Parallel: parallel, Log: log,
		})
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
// nil must survive any later crash.
type ackTrackingLog struct {
	inner wal.Log
	mu    sync.Mutex
	acked []wal.Record
}

func (l *ackTrackingLog) Append(rec wal.Record) error {
	err := l.inner.Append(rec)
	if err == nil {
		l.mu.Lock()
		l.acked = append(l.acked, rec)
		l.mu.Unlock()
	}
	return err
}

func recKey(r wal.Record) string {
	return fmt.Sprintf("%s|%s|%s|%d", r.Instance, r.Type, r.Path, r.Iter)
}

// RunE8 is the group-commit counterpart of the E7 soak: a fleet of
// concurrent chain instances shares one GroupCommitLog, and the server
// is crashed at every batch boundary (GroupCrashAfter sweeping every
// record count, clean and short-write). After each crash the file is
// repaired and the fleet recovered with RecoverLadder. The soak proves the
// group-commit durability contract:
//
//   - no acknowledged append is ever missing from the repaired log
//     (batch-granularity acks: a crashed batch acknowledges nothing);
//   - unacknowledged complete lines from a torn batch may survive, and
//     recovery replays them harmlessly;
//   - every instance with surviving records recovers to the same output
//     as the crash-free baseline.
func RunE8() *Report {
	r := &Report{
		ID:      "E8",
		Title:   "group-commit soak: crash + short-write at every batch boundary, no acknowledged append lost",
		Columns: []string{"mode", "fleet", "records", "crash points", "torn tails repaired", "acks lost", "recovered ok"},
		Pass:    true,
	}
	const fleet = 4
	const chainN = 5
	proc := Chain("e8", chainN)
	total := fleet * (2*chainN + 2)

	dir, err := os.MkdirTemp("", "wal-gc-soak")
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	defer os.RemoveAll(dir)

	// Crash-free baseline: the expected output container of every
	// instance (all instances run the identical workload).
	base := NewEngine()
	if err := base.RegisterProcess(proc); err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	baseRes, err := base.RunFleet(engine.FleetOptions{Process: proc.Name, N: 1})
	if err != nil || baseRes.Finished != 1 {
		r.Pass = false
		r.Err = fmt.Errorf("E8 baseline: %v (%v)", err, baseRes)
		return r
	}
	baseOut := baseRes.Instances[0].Output()

	for _, mode := range []struct {
		name       string
		shortWrite bool
	}{{"clean crash", false}, {"short write", true}} {
		okAll := true
		repaired := 0
		acksLost := 0
		for crashAt := 1; crashAt < total && okAll; crashAt++ {
			path := filepath.Join(dir, "soak.wal")
			flog, err := wal.OpenFileLog(path)
			if err != nil {
				okAll = false
				break
			}
			g := wal.NewGroupCommitLog(flog,
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
			if err != nil {
				okAll = false
				break
			}
			// The crash must actually have fired and failed at least one
			// instance with ErrCrash.
			if res.Failed == 0 || !errors.Is(res.Err, wal.ErrCrash) {
				okAll = false
				break
			}
			if err := flog.Close(); err != nil {
				okAll = false
				break
			}
			e2 := NewEngine()
			if err := e2.RegisterProcess(proc); err != nil {
				okAll = false
				break
			}
			insts, h, err := engine.RecoverLadder(e2, wal.Ladder{Path: path}, nil)
			if err != nil {
				okAll = false
				break
			}
			if h.Torn > 0 {
				repaired++
			}
			onDisk := make(map[string]bool, len(h.Tail))
			for _, rec := range h.Tail {
				onDisk[recKey(rec)] = true
			}
			track.mu.Lock()
			acked := append([]wal.Record(nil), track.acked...)
			track.mu.Unlock()
			for _, rec := range acked {
				if !onDisk[recKey(rec)] {
					acksLost++
					okAll = false
				}
			}
			if !okAll {
				break
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
		r.AddRow(mode.name, fmt.Sprint(fleet), fmt.Sprint(total),
			fmt.Sprint(total-1), fmt.Sprint(repaired), fmt.Sprint(acksLost), verdict)
	}
	return r
}
