package sim

import (
	"fmt"
	"os"
	"path/filepath"

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
