package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rm"
	"repro/internal/wal"
)

// runSharded executes fleet mode across multiple engine shards:
// instances are consistent-hash partitioned on instance ID, each shard
// runs its own workers and bounded admission queue, and with -wal the
// path becomes the fleet root directory holding one shard-NN
// subdirectory per shard, each with its own (optionally group-commit)
// segmented WAL. The summary reports per-shard placement so hash skew
// and rebalancing are visible from the command line. With -archive
// each shard also runs a checkpointer and an archiver copying sealed
// segments and checkpoints to ARCHIVE/shard-NN; local pruning waits
// for verified archived copies, so a degraded archive only grows local
// retention and never stalls the fleet.
func runSharded(e *engine.Engine, process string, shards, fleetN, parallel, maxQueue int,
	shed bool, walPath, archiveDir string, groupCommit, fsyncOn bool, format wal.Format,
	flushMs, batch int, stop <-chan struct{}, metrics bool) {
	cfg := engine.FleetConfig{
		Shards: shards, Dir: walPath, Parallel: parallel,
		MaxQueue: maxQueue, HotQueue: parallel + maxQueue/2, Shed: shed,
		GroupCommit: groupCommit, Fsync: fsyncOn, Format: format, Stop: stop,
		GroupWindow: time.Duration(flushMs) * time.Millisecond, GroupMaxBatch: batch,
	}
	if archiveDir != "" {
		// The fleet validates that an archive tier rides on a checkpointer,
		// so -archive switches sharded mode to checkpointed WALs too.
		cfg.ArchiveDir = archiveDir
		cfg.CheckpointEveryRecords = 64
	}
	f, err := engine.NewFleet(e, cfg)
	if err != nil {
		fatal(err)
	}
	res, err := f.Run(process, fleetN, nil)
	if err != nil {
		fatal(err)
	}
	if archiveDir != "" {
		// Best effort, outside the timed window (res.Elapsed is already
		// captured): flush the archive queues so a later -resume -archive
		// can fetch, but never block shutdown on a degraded store.
		for _, sh := range f.Shards() {
			if a := sh.Archiver(); a != nil {
				a.Drain(2 * time.Second)
			}
		}
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	st := f.Stats()
	secs := res.Elapsed.Seconds()
	fmt.Printf("fleet: %d instances of %s across %d shards: finished=%d failed=%d shed=%d rebalanced=%d elapsed=%s (%.1f instances/sec)\n",
		res.Launched, process, shards, res.Finished, res.Failed, res.Shed,
		st.Rebalanced, res.Elapsed.Round(time.Millisecond), float64(res.Launched)/secs)
	for _, s := range st.Shards {
		fmt.Printf("  %s: placed=%d finished=%d failed=%d\n",
			engine.ShardDirName(s.ID), s.Placed, s.Finished, s.Failed)
	}
	if res.Stopped {
		fmt.Printf("fleet: drained after stop signal: %d of %d instances never admitted\n",
			fleetN-res.Launched-res.Shed, fleetN)
	}
	if metrics {
		fmt.Println("-- metrics --")
		obs.WritePrometheus(os.Stdout, obs.Default)
	}
	if res.Failed > 0 {
		fatal(fmt.Errorf("%d of %d instances failed: %v", res.Failed, res.Launched, res.Err))
	}
}

// resumeSharded recovers every instance a sharded run left under the
// fleet root directory: each shard-NN subdirectory is recovered through
// its own ladder (engine.RecoverLadder; with -archive, missing or damaged
// blobs are fetched back from ARCHIVE/shard-NN), and the concatenation is
// reported like a single-log resume, with the recovery rung each shard
// climbed to.
func resumeSharded(build func() (*engine.Engine, *rm.Recorder), root, archiveDir string, metrics bool) {
	e, _ := build()
	dirs, err := engine.ShardDirs(root)
	if err != nil {
		fatal(err)
	}
	if len(dirs) == 0 {
		fatal(fmt.Errorf("engine: no shard-NN directories under %s", root))
	}
	var insts []*engine.Instance
	byRung := map[string]int{} // shards per ladder rung, so archive fetches show in the summary
	for _, dir := range dirs {
		ladder := wal.Ladder{Path: dir}
		if archiveDir != "" {
			st, err := wal.NewDirStore(filepath.Join(archiveDir, filepath.Base(dir)))
			if err != nil {
				fatal(err)
			}
			ladder.Store = st
		}
		recovered, h, err := engine.RecoverLadder(e, ladder, nil)
		if err != nil {
			fatal(fmt.Errorf("engine: recovering shard %s: %w", dir, err))
		}
		insts = append(insts, recovered...)
		byRung[h.Rung]++
	}
	finished := 0
	for _, inst := range insts {
		if inst.Finished() {
			finished++
		}
	}
	failed := len(insts) - finished
	var parts []string
	for _, r := range []string{
		wal.SourceNewestCheckpoint, wal.SourcePreviousCheckpoint,
		wal.SourceArchiveCheckpoint, wal.SourceFullReplay,
	} {
		if n := byRung[r]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", r, n))
		}
	}
	fmt.Printf("recovered %d instances from %d shard directories: finished=%d failed=%d (recovery rungs: %s)\n",
		len(insts), len(dirs), finished, failed, strings.Join(parts, " "))
	if metrics {
		fmt.Println("-- metrics --")
		obs.WritePrometheus(os.Stdout, obs.Default)
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d recovered instances failed", failed))
	}
}
