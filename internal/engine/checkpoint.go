package engine

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/wal"
)

// Checkpointer periodically folds a SegmentedLog's sealed segments into
// checkpoints and prunes what they make redundant. Each pass: optionally
// rotate when the active segment has accumulated enough records
// (CheckpointEveryRecords), read the segments sealed since the previous
// checkpoint, write the successor checkpoint (wal.BuildCheckpoint — the
// same compaction semantics as wal.Compact), keep the newest two
// checkpoints, and delete the segments wholly covered by the older
// retained one, so the previous-checkpoint rung of the recovery ladder
// always has its tail segments on disk.
//
// The checkpointer reads only sealed, immutable files and takes the log's
// lock only for the brief rotate/list/prune calls, so a fleet appending
// through a GroupCommitLog never stalls behind a checkpoint write.
type Checkpointer struct {
	log          *wal.SegmentedLog
	dir          string
	interval     time.Duration
	everyRecords int
	arch         *wal.Archiver

	mu      sync.Mutex
	stop    chan struct{}
	stopped chan struct{}
	err     error
}

// CheckpointerOption configures a Checkpointer.
type CheckpointerOption func(*Checkpointer)

// checkpointInterval sets how often the background loop runs a pass
// (default 100ms).
func checkpointInterval(d time.Duration) CheckpointerOption {
	return func(c *Checkpointer) {
		if d > 0 {
			c.interval = d
		}
	}
}

// CheckpointEveryRecords makes a pass rotate the active segment once it
// holds at least n records, so long-lived fleets checkpoint by work done
// rather than wall clock. 0 (the default) never forces a rotation — only
// segments sealed by the log's own size thresholds are folded in.
func CheckpointEveryRecords(n int) CheckpointerOption {
	return func(c *Checkpointer) { c.everyRecords = n }
}

// CheckpointDir stores checkpoint files in dir instead of the log's own
// segment directory.
func CheckpointDir(dir string) CheckpointerOption {
	return func(c *Checkpointer) { c.dir = dir }
}

// CheckpointArchive attaches an Archiver: every pass enqueues the log's
// sealed segments and the surviving checkpoints for upload, and pruning
// becomes archive-gated — a segment or checkpoint is deleted locally
// only once its archived copy has CRC-verified (wal.Archiver.Verified).
// A slow or down archive therefore grows local retention instead of
// stalling checkpointing; the checkpoint pass itself never waits on the
// store. The caller owns the archiver's lifecycle (Start/Stop).
func CheckpointArchive(a *wal.Archiver) CheckpointerOption {
	return func(c *Checkpointer) { c.arch = a }
}

// NewCheckpointer prepares a checkpointer for log. Run passes manually
// with CheckpointNow, or Start the background loop.
func NewCheckpointer(log *wal.SegmentedLog, opts ...CheckpointerOption) *Checkpointer {
	c := &Checkpointer{log: log, dir: log.Dir(), interval: 100 * time.Millisecond}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Dir returns the directory checkpoints are written to.
func (c *Checkpointer) Dir() string { return c.dir }

// CheckpointNow runs one synchronous pass: rotate if the record trigger
// fires, fold newly sealed segments into a new checkpoint, and prune. A
// pass with nothing newly sealed writes nothing and returns nil.
func (c *Checkpointer) CheckpointNow() error {
	if c.everyRecords > 0 && c.log.ActiveRecords() >= c.everyRecords {
		if err := c.log.Rotate(); err != nil {
			return err
		}
	}
	prev, err := wal.LoadCheckpoint(c.dir)
	if err != nil {
		return err
	}
	cover := 0
	if prev != nil {
		cover = prev.Cover
	}
	var recs []wal.Record
	maxIdx := cover
	for _, s := range c.log.SealedSegments() {
		if c.arch != nil {
			c.arch.Enqueue(s.Path) // idempotent: verified/queued names are skipped
		}
		if s.Index <= cover {
			continue
		}
		rs, err := wal.ReadFile(s.Path) // sealed segments are clean: strict read
		if err != nil {
			return fmt.Errorf("engine: checkpointing segment %d: %w", s.Index, err)
		}
		recs = append(recs, rs...)
		maxIdx = s.Index
	}
	if maxIdx == cover {
		// Nothing newly sealed — but still run retention: a crash between a
		// previous pass's checkpoint write and its prune would otherwise
		// leave orphaned covered segments (and surplus checkpoints) on disk
		// until new work seals a segment, and with an archiver attached a
		// blob verified since the last pass only becomes prune-eligible
		// here.
		return c.retention()
	}
	cp := wal.BuildCheckpoint(prev, recs, maxIdx)
	path, err := wal.WriteCheckpoint(c.dir, cp)
	if err != nil {
		return err
	}
	if c.arch != nil {
		c.arch.Enqueue(path)
	}
	return c.retention()
}

// retention prunes checkpoints beyond the retained two and the segments
// wholly covered by the older retained checkpoint: segments in
// (older.Cover, newest.Cover] stay on disk as the previous-checkpoint
// rung's tail. With an archiver attached both prunes are gated on
// verified archived copies, and every survivor is (re-)enqueued so a
// recovering archive eventually unblocks retention.
func (c *Checkpointer) retention() error {
	var ckptOK func(name string) bool
	var segOK func(wal.SegmentInfo) bool
	if c.arch != nil {
		ckptOK = func(name string) bool { return c.arch.Verified(name) }
		segOK = func(s wal.SegmentInfo) bool { return c.arch.Verified(filepath.Base(s.Path)) }
	}
	survivors, err := wal.PruneCheckpointsEligible(c.dir, 2, ckptOK)
	if err != nil {
		return err
	}
	if c.arch != nil {
		for _, ci := range survivors {
			c.arch.Enqueue(ci.Path)
		}
	}
	if len(survivors) < 2 {
		return nil
	}
	older, err := wal.ReadCheckpoint(survivors[len(survivors)-2].Path)
	if err != nil {
		// A damaged older checkpoint can't vouch for what it covers; leave
		// the segments for the recovery ladder to sort out.
		return nil
	}
	_, err = c.log.PruneEligible(older.Cover, segOK)
	return err
}

// Start launches the background loop. Stop it with Stop.
func (c *Checkpointer) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.stopped = make(chan struct{})
	go c.run(c.stop, c.stopped)
}

func (c *Checkpointer) run(stop, stopped chan struct{}) {
	t := time.NewTicker(c.interval)
	defer t.Stop()
	defer close(stopped)
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if err := c.CheckpointNow(); err != nil {
				c.mu.Lock()
				if c.err == nil {
					c.err = err
				}
				c.mu.Unlock()
			}
		}
	}
}

// Stop halts the background loop, runs one final pass (so a clean
// shutdown leaves a checkpoint covering everything sealed), and returns
// the first error the loop or the final pass hit.
func (c *Checkpointer) Stop() error {
	c.mu.Lock()
	stop, stopped := c.stop, c.stopped
	c.stop, c.stopped = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-stopped
	}
	err := c.CheckpointNow()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		err = c.err
		c.err = nil
	}
	return err
}
