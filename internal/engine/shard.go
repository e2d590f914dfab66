package engine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/wal"
)

// ErrFleetStopped is returned by Fleet.Submit when the fleet's Stop
// channel closed while the submission was waiting for admission: the
// fleet is draining gracefully and admits no new work.
var ErrFleetStopped = errors.New("engine: fleet stopped, admission closed")

// ShardFor places an instance ID on one of shards buckets using jump
// consistent hashing (Lamping & Veach, "A Fast, Minimal Memory,
// Consistent Hash Algorithm") over an FNV-1a 64 digest of the ID. Jump
// hashing gives placement the property the fleet's resharding story
// depends on: growing the shard count from N to N+1 moves only
// ~1/(N+1) of the instances, and every instance that moves lands on the
// new shard — nothing shuffles between existing shards (verified by the
// placement property test).
func ShardFor(instanceID string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(instanceID))
	return jumpHash(h.Sum64(), shards)
}

// jumpHash is the Lamping–Veach jump consistent hash: stateless,
// O(ln buckets), minimal key movement as buckets grows.
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// ShardDirName is the on-disk subdirectory of shard i within a fleet
// root: "shard-00", "shard-01", ... Recovery discovers shards by this
// naming (ShardDirs).
func ShardDirName(i int) string { return fmt.Sprintf("shard-%02d", i) }

// ShardDirs lists the shard-NN subdirectories of a fleet root in shard
// order. Only a directory named exactly ShardDirName(i) for some i counts:
// a backup copy such as shard-00.bak is not a second shard. An empty
// result with a nil error means root holds no shard layout.
func ShardDirs(root string) ([]string, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("engine: reading fleet root: %w", err)
	}
	var dirs []string
	for _, ent := range ents {
		var i int
		if !ent.IsDir() {
			continue
		}
		if n, err := fmt.Sscanf(ent.Name(), "shard-%d", &i); n != 1 || err != nil || i < 0 || ent.Name() != ShardDirName(i) {
			continue
		}
		dirs = append(dirs, filepath.Join(root, ent.Name()))
	}
	sort.Strings(dirs)
	return dirs, nil
}

// FleetConfig configures a sharded Fleet (NewFleet).
type FleetConfig struct {
	// Shards is the number of engine shards (>= 1).
	Shards int
	// Dir is the fleet root directory; shard i owns Dir/shard-NN with its
	// own segmented WAL and checkpoints. Empty runs every shard on an
	// in-memory log — no durability, no checkpointing; benchmarks and
	// tests only.
	Dir string
	// Parallel bounds concurrent instances per shard (default 1). Total
	// fleet concurrency is Shards*Parallel: adding a shard adds workers
	// and a WAL, which is the scaling claim B14 measures.
	Parallel int
	// MaxQueue bounds each shard's admission queue beyond its Parallel
	// worker slots (0 = no queue).
	MaxQueue int
	// HotQueue is the per-shard in-flight depth (queued + active) at
	// which the shard counts as hot and new arrivals spill to the
	// least-loaded peer before its queue is even full. 0 disables the
	// proactive spill; overflow rebalancing on a full queue still applies
	// unless NoRebalance is set.
	HotQueue int
	// Shed enables load shedding: when the home shard and every rebalance
	// target are full, Submit rejects with ErrOverloaded instead of
	// blocking. The shed instance is never created and leaves no WAL
	// record.
	Shed bool
	// NoRebalance pins every instance to its consistent-hash home shard;
	// a full home shard then blocks (or sheds) rather than spilling to a
	// peer.
	NoRebalance bool
	// GroupCommit layers a GroupCommitLog over each shard's segmented log
	// so concurrent appenders within the shard share fsyncs. Requires Dir.
	GroupCommit bool
	// GroupWindow and GroupMaxBatch tune each shard's group commit
	// (wal.GroupWindow, wal.GroupMaxBatch; 0 = the wal package default).
	GroupWindow   time.Duration
	GroupMaxBatch int
	// Fsync makes each shard's log durable: per-record fsync on the
	// segmented log, or batch-level fsync when GroupCommit is set.
	Fsync bool
	// Format selects the record framing for new shard segments
	// (wal.FormatText default).
	Format wal.Format
	// SegmentMaxRecords rotates a shard's active segment after n records
	// (0 = the wal package default).
	SegmentMaxRecords int
	// CheckpointEveryRecords starts a background Checkpointer per shard
	// that checkpoints after every n appended records (0 = no
	// checkpointer). Requires Dir.
	CheckpointEveryRecords int
	// ArchiveDir enables the archive tier: each shard's sealed segments
	// and checkpoints archive asynchronously to a wal.DirStore under
	// ArchiveDir/shard-NN, and local pruning becomes archive-gated.
	// Requires CheckpointEveryRecords (the Checkpointer owns the
	// archiver's enqueue points).
	ArchiveDir string
	// ArchiveStore, when non-nil, overrides the store each shard archives
	// to — the archive fault-injection seam (E12 wraps a FaultStore per
	// shard this way). Takes precedence over ArchiveDir.
	ArchiveStore func(shard int) wal.Store
	// ArchiveOpts supplies extra Archiver options per shard (timeouts,
	// backoff, breaker thresholds; soaks pin seeds here).
	ArchiveOpts func(shard int) []wal.ArchiverOption
	// FS, when non-nil, supplies the file system beneath a shard's
	// segments (default wal.OSFS) — the fault-injection seam: the E11
	// soak kills one shard at a byte with a wal.FaultFS this way.
	FS func(shard int) wal.FS
	// WrapLog, when non-nil, wraps the log a shard's instances append to
	// — the observation seam (soaks interpose ack-tracking here). The
	// wrapper sees the shard's outermost log (group commit when enabled).
	// With Dir empty it may instead return a caller-owned log: one shard
	// over a shared FileLog or GroupCommitLog is a plain fleet on one WAL,
	// and the caller closes that log (Close releases only what the fleet
	// opened).
	WrapLog func(shard int, log wal.Log) wal.Log
	// Stop, when non-nil, is a graceful-drain signal: once closed, Submit
	// admits no new instances (ErrFleetStopped) and Run returns after
	// in-flight instances complete.
	Stop <-chan struct{}
}

// Shard is one engine shard of a Fleet: a bounded scheduler plus a
// private WAL (and optional Checkpointer) under its own shard-NN
// directory. Instances placed on a shard execute on its workers and
// append only to its log, so each shard directory is a self-contained
// recovery unit — RecoverFleet replays them independently.
type Shard struct {
	// ID is the shard index (0-based); its directory is ShardDirName(ID).
	ID int

	sched *scheduler
	slog  *wal.SegmentedLog
	glog  *wal.GroupCommitLog
	log   wal.Log // outermost log instances append to (after WrapLog)
	ckpt  *Checkpointer
	arch  *wal.Archiver

	queue  *obs.Gauge // engine.shard.NN.queue.depth
	active *obs.Gauge // engine.shard.NN.active

	inflight atomic.Int64 // admitted (queued + active)
	placed   atomic.Int64
	finished atomic.Int64
	failed   atomic.Int64
}

// Log exposes the log instances of this shard append to (nil only
// before the fleet finished construction).
func (sh *Shard) Log() wal.Log { return sh.log }

// Archiver exposes the shard's archive uploader (nil when the fleet has
// no archive tier) — monitoring and tests drain or inspect it here.
func (sh *Shard) Archiver() *wal.Archiver { return sh.arch }

// Fleet partitions process instances across N engine shards by
// consistent-hash placement on instance ID (ShardFor). Each shard owns
// its own segmented WAL, optional group commit and Checkpointer, and a
// bounded admission queue, removing the single-scheduler/single-WAL
// throughput ceiling: shards share nothing on the append path, so
// records/sec scales with shard count (the B14 table gates near-linear
// scaling to 4 shards). When a shard's queue runs hot, admission
// rebalances new arrivals to the least-loaded peer *before* the
// instance is created, so every instance's records still land wholly
// inside one shard directory and per-shard recovery stays exact.
//
// A Fleet is one-shot like the scheduler underneath: Submit until done,
// then Drain (or use Run), then Close.
type Fleet struct {
	e   *Engine
	cfg FleetConfig

	shards     []*Shard
	rebalanced atomic.Int64
	shed       atomic.Int64
	closed     bool
}

// NewFleet builds a sharded fleet over e. With cfg.Dir set, each shard
// opens (or reopens) its segmented log and checkpoint directory under
// Dir/shard-NN; Close releases them.
func NewFleet(e *Engine, cfg FleetConfig) (*Fleet, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("engine: fleet shards %d, want >= 1", cfg.Shards)
	}
	if cfg.Parallel < 1 {
		cfg.Parallel = 1
	}
	if cfg.Dir == "" && (cfg.GroupCommit || cfg.Fsync || cfg.CheckpointEveryRecords > 0) {
		return nil, errors.New("engine: fleet durability options require a directory")
	}
	if (cfg.ArchiveDir != "" || cfg.ArchiveStore != nil) && cfg.CheckpointEveryRecords <= 0 {
		return nil, errors.New("engine: fleet archive tier requires CheckpointEveryRecords")
	}
	f := &Fleet{e: e, cfg: cfg}
	reg := e.Metrics()
	for i := 0; i < cfg.Shards; i++ {
		sh := &Shard{
			ID:     i,
			sched:  newScheduler(cfg.Parallel, cfg.MaxQueue),
			queue:  reg.Gauge(fmt.Sprintf("engine.shard.%02d.queue.depth", i)),
			active: reg.Gauge(fmt.Sprintf("engine.shard.%02d.active", i)),
		}
		// The shard joins before its logs open, so a failure below closes
		// what this shard has opened too.
		f.shards = append(f.shards, sh)
		if cfg.Dir != "" {
			dir := filepath.Join(cfg.Dir, ShardDirName(i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				f.Close()
				return nil, fmt.Errorf("engine: shard %d dir: %w", i, err)
			}
			sopts := []wal.SegmentOption{wal.SegmentFormat(cfg.Format)}
			if cfg.SegmentMaxRecords > 0 {
				sopts = append(sopts, wal.SegmentMaxRecords(cfg.SegmentMaxRecords))
			}
			if cfg.Fsync && !cfg.GroupCommit {
				sopts = append(sopts, wal.SegmentFsync())
			}
			if cfg.FS != nil {
				sopts = append(sopts, wal.SegmentFS(cfg.FS(i)))
			}
			slog, err := wal.OpenSegmentedLog(dir, sopts...)
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("engine: shard %d log: %w", i, err)
			}
			sh.slog = slog
			sh.log = slog
			if cfg.GroupCommit {
				sh.glog = wal.NewGroupCommitSegmented(slog,
					wal.GroupWindow(cfg.GroupWindow), wal.GroupMaxBatch(cfg.GroupMaxBatch))
				sh.log = sh.glog
			}
			if cfg.CheckpointEveryRecords > 0 {
				copts := []CheckpointerOption{
					CheckpointDir(dir),
					CheckpointEveryRecords(cfg.CheckpointEveryRecords),
				}
				if cfg.ArchiveStore != nil || cfg.ArchiveDir != "" {
					store := wal.Store(nil)
					if cfg.ArchiveStore != nil {
						store = cfg.ArchiveStore(i)
					} else {
						ds, err := wal.NewDirStore(filepath.Join(cfg.ArchiveDir, ShardDirName(i)))
						if err != nil {
							f.Close()
							return nil, fmt.Errorf("engine: shard %d archive: %w", i, err)
						}
						store = ds
					}
					var aopts []wal.ArchiverOption
					if cfg.ArchiveOpts != nil {
						aopts = cfg.ArchiveOpts(i)
					}
					sh.arch = wal.NewArchiver(store, aopts...)
					sh.arch.Start()
					copts = append(copts, CheckpointArchive(sh.arch))
				}
				sh.ckpt = NewCheckpointer(slog, copts...)
				sh.ckpt.Start()
			}
		} else {
			sh.log = &wal.MemLog{}
		}
		if cfg.WrapLog != nil {
			sh.log = cfg.WrapLog(i, sh.log)
		}
	}
	return f, nil
}

// Shards exposes the fleet's shards in index order (monitoring and
// tests; do not submit to a shard's scheduler directly).
func (f *Fleet) Shards() []*Shard { return f.shards }

// hot reports whether sh's in-flight depth has crossed the proactive
// spill threshold.
func (f *Fleet) hot(sh *Shard) bool {
	return f.cfg.HotQueue > 0 && sh.inflight.Load() >= int64(f.cfg.HotQueue)
}

// byLoad returns the fleet's shards except home, least loaded first —
// the rebalance candidate order.
func (f *Fleet) byLoad(home *Shard) []*Shard {
	out := make([]*Shard, 0, len(f.shards)-1)
	for _, sh := range f.shards {
		if sh != home {
			out = append(out, sh)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].inflight.Load() < out[j].inflight.Load()
	})
	return out
}

// place reserves an admission slot for a new instance: on the home
// shard when it is cool, otherwise on the least-loaded peer that will
// admit (rebalance), degrading to shed or blocking per the config. The
// returned shard holds one admission reservation.
func (f *Fleet) place(id string) (*Shard, error) {
	home := f.shards[ShardFor(id, len(f.shards))]
	rebalance := !f.cfg.NoRebalance && len(f.shards) > 1

	// Proactive spill: a hot home shard loses new arrivals to a strictly
	// cooler peer even though its queue could still admit them.
	if rebalance && f.hot(home) {
		for _, sh := range f.byLoad(home) {
			if sh.inflight.Load() < home.inflight.Load() && sh.sched.TryAdmit() {
				f.noteRebalance(id, home, sh)
				return sh, nil
			}
			break // only the least-loaded peer is a spill candidate
		}
	}
	if home.sched.TryAdmit() {
		return home, nil
	}
	// Overflow rebalance: the home queue is full; try peers least loaded
	// first.
	if rebalance {
		for _, sh := range f.byLoad(home) {
			if sh.sched.TryAdmit() {
				f.noteRebalance(id, home, sh)
				return sh, nil
			}
		}
	}
	if f.cfg.Shed {
		n := f.shed.Add(1)
		f.e.metrics.fleetShed.Inc()
		if f.e.bus.Active() {
			f.e.bus.Publish(obs.Event{Kind: obs.EvShardShed, Shard: home.ID, N: n})
		}
		return nil, ErrOverloaded
	}
	if f.cfg.Stop != nil {
		if !home.sched.AdmitStop(f.cfg.Stop) {
			return nil, ErrFleetStopped
		}
		return home, nil
	}
	home.sched.Admit()
	return home, nil
}

func (f *Fleet) noteRebalance(id string, home, target *Shard) {
	f.rebalanced.Add(1)
	f.e.metrics.fleetRebalanced.Inc()
	if f.e.bus.Active() {
		f.e.bus.Publish(obs.Event{Kind: obs.EvShardRebalance, Instance: id,
			Shard: target.ID, N: int64(home.ID)})
	}
}

// Submit places one instance of process on a shard and schedules it,
// returning the created instance immediately — execution is
// asynchronous; Drain (or Run) waits for completion. Placement is the
// consistent-hash home shard unless it runs hot or full, in which case
// the instance rebalances to the least-loaded admitting peer (counted
// in Stats and published as a shard.rebalance event). With Shed,
// ErrOverloaded is returned when every shard is full; otherwise Submit
// blocks on the home shard (backpressure). done, when non-nil, runs on
// the shard worker after the instance completes; its error is nil only
// for normal completion.
func (f *Fleet) Submit(process string, input map[string]expr.Value, done func(*Instance, error)) (*Instance, error) {
	if f.cfg.Stop != nil {
		select {
		case <-f.cfg.Stop:
			return nil, ErrFleetStopped
		default:
		}
	}
	id := f.e.NewInstanceID()
	sh, err := f.place(id)
	if err != nil {
		return nil, err
	}
	inst, err := f.e.CreateInstanceID(process, id, input, sh.log)
	if err != nil {
		sh.sched.Unadmit()
		return nil, err
	}
	sh.inflight.Add(1)
	sh.placed.Add(1)
	sh.queue.Add(1)
	f.e.metrics.fleetQueue.Add(1)
	if f.e.bus.Active() {
		f.e.bus.Publish(obs.Event{Kind: obs.EvShardEnqueue, Instance: inst.ID(),
			Shard: sh.ID, N: sh.queue.Value()})
	}
	sh.sched.Go(func() {
		sh.queue.Add(-1)
		sh.active.Add(1)
		f.e.metrics.fleetQueue.Add(-1)
		f.e.metrics.fleetActive.Add(1)
		if f.e.bus.Active() {
			f.e.bus.Publish(obs.Event{Kind: obs.EvShardActive, Instance: inst.ID(),
				Shard: sh.ID, N: sh.active.Value()})
		}
		defer func() {
			sh.active.Add(-1)
			sh.inflight.Add(-1)
			f.e.metrics.fleetActive.Add(-1)
			if f.e.bus.Active() {
				f.e.bus.Publish(obs.Event{Kind: obs.EvShardDone, Instance: inst.ID(),
					Shard: sh.ID, N: sh.active.Value()})
			}
		}()
		err := inst.Start()
		if err == nil && !inst.Finished() {
			if err = inst.Err(); err == nil {
				status, cause := inst.StatusInfo()
				err = fmt.Errorf("engine: instance %s ended %s (%s)", inst.ID(), status, cause)
			}
		}
		if err == nil {
			sh.finished.Add(1)
		} else {
			sh.failed.Add(1)
		}
		if done != nil {
			done(inst, err)
		}
	})
	return inst, nil
}

// Run executes n instances of process through the fleet and blocks until
// it drains — the throughput shape of the paper's Figure 5 pipeline,
// "many concurrent instances of an executable template", as one call.
// input, when non-nil, supplies the i-th instance's input container
// values. The returned error reports configuration problems (unknown
// process, bad n); per-instance failures land in FleetResult.Failed / Err
// with the fleet running to completion regardless.
func (f *Fleet) Run(process string, n int, input func(i int) map[string]expr.Value) (*FleetResult, error) {
	if _, ok := f.e.Process(process); !ok {
		return nil, fmt.Errorf("engine: unknown process %q", process)
	}
	if n < 1 {
		return nil, fmt.Errorf("engine: fleet size %d, want >= 1", n)
	}
	res := &FleetResult{Instances: make([]*Instance, 0, n)}
	var mu sync.Mutex
	tally := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			res.Finished++
			return
		}
		res.Failed++
		if res.Err == nil {
			res.Err = err
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		var in map[string]expr.Value
		if input != nil {
			in = input(i)
		}
		inst, err := f.Submit(process, in, func(_ *Instance, err error) { tally(err) })
		if errors.Is(err, ErrOverloaded) {
			res.Shed++
			continue
		}
		if errors.Is(err, ErrFleetStopped) {
			res.Stopped = true
			break
		}
		res.Launched++
		if err != nil {
			tally(err) // admitted, but creation failed
			continue
		}
		res.Instances = append(res.Instances, inst)
	}
	f.Drain()
	res.Elapsed = time.Since(start)
	return res, nil
}

// Drain blocks until every submitted instance has finished executing.
func (f *Fleet) Drain() {
	for _, sh := range f.shards {
		sh.sched.Wait()
	}
}

// Close stops every shard's Checkpointer and closes its logs (group
// commit first, then the segmented log underneath). It returns the first
// error: a checkpointer's, in shard order, before a log's. Idempotent.
func (f *Fleet) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	var ckptErr, logErr error
	for _, sh := range f.shards {
		if sh.ckpt != nil {
			if err := sh.ckpt.Stop(); err != nil && ckptErr == nil {
				ckptErr = err
			}
		}
		if sh.arch != nil {
			// Stop after the checkpointer's final pass so its last
			// checkpoint is enqueued; whatever has not uploaded yet is
			// still on local disk (pruning is verification-gated), so a
			// non-empty queue at shutdown loses nothing.
			sh.arch.Stop()
		}
		var err error
		if sh.glog != nil {
			err = sh.glog.Close()
		} else if sh.slog != nil {
			err = sh.slog.Close()
		}
		if err != nil && logErr == nil {
			logErr = err
		}
	}
	if ckptErr != nil {
		return ckptErr
	}
	return logErr
}

// ShardStats is a monitoring snapshot of one shard.
type ShardStats struct {
	ID       int
	Placed   int64 // instances created against this shard's log
	Queued   int64 // admitted, waiting for a worker
	Active   int64 // executing now
	Finished int64
	Failed   int64
}

// FleetStats is a point-in-time snapshot of a Fleet.
type FleetStats struct {
	Shards     []ShardStats
	Rebalanced int64 // instances spilled off their home shard
	Shed       int64 // instances rejected with every shard full
}

// Stats snapshots the fleet (safe while instances are running).
func (f *Fleet) Stats() FleetStats {
	st := FleetStats{Rebalanced: f.rebalanced.Load(), Shed: f.shed.Load()}
	for _, sh := range f.shards {
		st.Shards = append(st.Shards, ShardStats{
			ID:       sh.ID,
			Placed:   sh.placed.Load(),
			Queued:   sh.queue.Value(),
			Active:   sh.active.Value(),
			Finished: sh.finished.Load(),
			Failed:   sh.failed.Load(),
		})
	}
	return st
}

// RecoverFleet recovers every instance of a sharded fleet from its root
// directory: ShardLadders lists one recovery ladder per shard-NN
// subdirectory (checkpoints are co-located with the segments) and
// RecoverShards recovers them in parallel. Each shard directory is an
// independent recovery unit — placement happens before instance
// creation, so an instance's records live wholly inside one shard — and
// the result reproduces exactly what recovering one shared log would have
// produced, modulo instance order across shards (shard index, then first
// appearance within the shard).
//
// newLog, when non-nil, supplies the fresh log each recovered instance
// writes; it may be called from several goroutines at once. A shard that
// fails does not stop the others: every instance recovered is returned,
// alongside the per-shard errors joined in shard order.
func RecoverFleet(e *Engine, root string, newLog func(instanceID string) wal.Log) ([]*Instance, error) {
	ladders, err := ShardLadders(root, "")
	if err != nil {
		return nil, err
	}
	insts, _, err := RecoverShards(e, ladders, newLog)
	return insts, err
}

// ShardLadders returns one recovery ladder per shard-NN subdirectory of a
// fleet root, in shard order (ShardDirs). With archiveDir non-empty each
// ladder fetches missing or damaged blobs from the wal.DirStore at
// archiveDir/shard-NN — where FleetConfig.ArchiveDir archives shard NN. A
// root without a shard layout is an error.
func ShardLadders(root, archiveDir string) ([]wal.Ladder, error) {
	dirs, err := ShardDirs(root)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("engine: no shard-NN directories under %s", root)
	}
	ladders := make([]wal.Ladder, len(dirs))
	for i, dir := range dirs {
		ladders[i].Path = dir
		if archiveDir == "" {
			continue
		}
		st, err := wal.NewDirStore(filepath.Join(archiveDir, filepath.Base(dir)))
		if err != nil {
			return nil, err
		}
		ladders[i].Store = st
	}
	return ladders, nil
}

// RecoverShards recovers every instance of a set of independent logs —
// the shard directories of a fleet, one ladder each — by running
// RecoverLadder over the ladders on min(len(ladders), GOMAXPROCS)
// workers. The calling goroutine is one of them, so a single ladder or
// GOMAXPROCS=1 recovers inline through the same loop. Results are
// assembled in ladder order: the instances are each ladder's, in order of
// first appearance, concatenated; the histories are one per ladder (nil
// where the walk itself failed).
//
// Every ladder is recovered even when another fails — by then a later
// shard's in-flight instances may already have resumed and re-run
// programs, so their handles are returned rather than dropped. The error
// joins the per-shard errors in ladder order, each naming its directory.
//
// Instances of different ladders navigate concurrently, as in a live
// fleet: newLog, the engine's trail observer (WithTrailObserver) and its
// bus may be called from several goroutines at once.
func RecoverShards(e *Engine, ladders []wal.Ladder, newLog func(instanceID string) wal.Log) ([]*Instance, []*wal.History, error) {
	insts := make([][]*Instance, len(ladders))
	hs := make([]*wal.History, len(ladders))
	errs := make([]error, len(ladders))
	var next atomic.Int64
	var wg sync.WaitGroup
	// One closure serves every worker, so the worker count changes no
	// allocation.
	work := func() {
		defer wg.Done()
		for i := int(next.Add(1) - 1); i < len(ladders); i = int(next.Add(1) - 1) {
			insts[i], hs[i], errs[i] = RecoverLadder(e, ladders[i], newLog)
		}
	}
	workers := max(1, min(len(ladders), runtime.GOMAXPROCS(0)))
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go work()
	}
	work()
	wg.Wait()

	n := 0
	for _, got := range insts {
		n += len(got)
	}
	out := make([]*Instance, 0, n)
	var failed []error
	for i, got := range insts {
		out = append(out, got...)
		if errs[i] != nil {
			failed = append(failed, fmt.Errorf("engine: recovering shard %s: %w", ladders[i].Path, errs[i]))
		}
	}
	return out, hs, errors.Join(failed...)
}
