package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/wal"
)

// workloadDef is what main needs to know about a workload before it
// runs.
type workloadDef struct {
	name string
	// cpus is how many goroutines the workload keeps busy at once: a
	// closed-loop client and the worker that runs its op take turns, so a
	// closed loop counts its clients; the open loop counts its generator,
	// which spins to hit each arrival time, plus the one worker the
	// offered load keeps busy at most.
	cpus int
	ops  int // per round
	why  string
}

var workloads = []workloadDef{
	{"atm-mem", 1, 5000, "sagas and flexible transactions navigated on an in-memory log: engine, expr, model and FMTM output alone; bypasses wal, fleet and disk"},
	{"fleet-durable", 2, 250, "2 closed-loop clients on a 2-shard group-commit fleet whose every flush takes a fixed 200 us: the append-to-ack wait is 95% of the op, navigation 4%"},
	{"arrive-open", 2, 1000, "open loop at 1000 arrivals/s through the same fleet and wal layers with a flush that takes no time: latency from scheduled arrival on the program's own path"},
	{"restart-read", 1, 10, "recovery of a crashed fleet with and without checkpoints plus time-travel queries: the read side, no new work and no append wait"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// stageTimes are the parts of set-up that belong to single layers.
type stageTimes struct {
	pipeline, parse, register time.Duration
}

func newRunner(p params) (runner, stageTimes, error) {
	w, ok := findWorkload(p.workload)
	if !ok {
		return nil, stageTimes{}, fmt.Errorf("unknown workload %q", p.workload)
	}
	ops := w.ops
	if p.ops > 0 {
		ops = p.ops
	}
	c, err := compile()
	if err != nil {
		return nil, stageTimes{}, err
	}
	start := time.Now()
	if _, err := c.newEngine(p.seed, nil); err != nil {
		return nil, stageTimes{}, err
	}
	stages := stageTimes{pipeline: c.pipelineDur, parse: c.parseDur, register: time.Since(start)}

	var r runner
	if p.workload == "restart-read" {
		r, err = newRestartRunner(c, p, ops)
	} else {
		r, err = newNavRunner(c, p, ops)
	}
	return r, stages, err
}

// Fleet shape of the two fleet workloads. Segments and checkpoints are
// sized so that a round of either rotates each shard's log several
// times and the background checkpointer completes several passes.
// durableFlush is what this box's disk took for a small write and fsync
// when it was measured (bench.disk_fsync_p50_us measures it again in
// every traced run).
const (
	fleetShards       = 2
	segmentMaxRecords = 250
	checkpointEvery   = 500
	durableClients    = 2
	durableFlush      = 200 * time.Microsecond
	arrivalRate       = 1000 // per second
	hotQueue          = 4
)

// navRunner runs the three workloads that navigate new instances.
type navRunner struct {
	c        *compiled
	workload string
	seed     uint64
	ops      int
	ids      []string
	want     []expectation
	dir      string // a round's fleet directory is made under it
	roundNo  int
}

func newNavRunner(c *compiled, p params, ops int) (*navRunner, error) {
	r := &navRunner{c: c, workload: p.workload, seed: p.seed, ops: ops, ids: instanceIDs(ops)}
	var err error
	if r.want, err = c.oracle(p.seed, r.ids); err != nil {
		return nil, err
	}
	if r.dir, err = os.MkdirTemp(p.root, p.workload+"-"); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *navRunner) close() { os.RemoveAll(r.dir) }

// arrivals is the open loop's schedule for one round: ops arrival times
// of a Poisson process, given that ops of them fall in the round's
// window, so every round offers exactly arrivalRate.
func arrivals(seed uint64, round, ops int) []time.Duration {
	rng := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(round)))
	window := float64(ops) / arrivalRate * float64(time.Second)
	out := make([]time.Duration, ops)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * window)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// flushFS is the file system under the shard logs of both fleet
// workloads: real files in the round's directory, written through the
// page cache, whose Sync does not go to the device but takes a fixed
// time. The real disk of a shared box cannot be gated — on identical
// code fleet-durable's op_p50_ms read 2.4 to 3.2 ms, a quartile spread
// of 21 to 29% over ten runs — and the benchmark may not write outside
// its checkout, so it cannot use a memory-backed mount either.
type flushFS struct {
	flush time.Duration
}

type flushFile struct {
	*os.File
	flush time.Duration
}

func (fs flushFS) Create(path string) (wal.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return flushFile{f, fs.flush}, nil
}

func (flushFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Sync waits out the flush time yielding, as a goroutine blocked in a
// real fsync leaves its CPU to others; time.Sleep would overshoot by
// more than the flush.
func (f flushFile) Sync() error {
	for start := time.Now(); time.Since(start) < f.flush; {
		runtime.Gosched()
	}
	return nil
}

// shardLog is one shard's log stack, the one engine.NewFleet builds for
// a durable fleet — segmented log, binary framing, group commit, a
// background checkpointer — assembled here from the same public parts
// because FleetConfig has no seam for the file system.
type shardLog struct {
	group *wal.GroupCommitLog
	ckpt  *engine.Checkpointer
}

func openShardLog(dir string, fs wal.FS) (*shardLog, error) {
	slog, err := wal.OpenSegmentedLog(dir, wal.SegmentFS(fs),
		wal.SegmentFormat(wal.FormatBinary), wal.SegmentMaxRecords(segmentMaxRecords))
	if err != nil {
		return nil, err
	}
	l := &shardLog{
		group: wal.NewGroupCommitSegmented(slog),
		ckpt:  engine.NewCheckpointer(slog, engine.CheckpointEveryRecords(checkpointEvery)),
	}
	l.ckpt.Start()
	return l, nil
}

// close runs the checkpointer's last pass and closes the log.
func (l *shardLog) close() error {
	err := l.ckpt.Stop()
	if cerr := l.group.Close(); err == nil {
		err = cerr
	}
	return err
}

func (r *navRunner) round(tr *tracer) (*roundOut, error) {
	r.roundNo++
	var wrapProgram func(engine.ProgramFunc) engine.ProgramFunc
	if tr != nil {
		tr.reset(r.ops)
		wrapProgram = tr.program
	}
	e, err := r.c.newEngine(r.seed, wrapProgram)
	if err != nil {
		return nil, err
	}
	run := &navRound{
		r: r, tr: tr, e: e,
		insts: make([]*engine.Instance, r.ops),
		errs:  make([]error, r.ops),
		out:   &roundOut{lat: make([]time.Duration, r.ops)},
	}
	before := readRegistry(obs.Default)
	if r.workload == "atm-mem" {
		err = run.mem()
	} else {
		err = run.fleet()
	}
	if err != nil {
		return nil, err
	}
	out := run.out
	out.counts.add(readRegistry(obs.Default).minus(before))
	out.counts[cOps] = int64(r.ops)
	for _, w := range r.want {
		if w.compensated {
			out.counts[cCompensated]++
		}
	}
	out.finish = run.finish
	return out, nil
}

// navRound is one round of a navRunner.
type navRound struct {
	r     *navRunner
	tr    *tracer
	e     *engine.Engine
	insts []*engine.Instance
	errs  []error
	out   *roundOut
	dir   string    // the round's fleet root
	start time.Time // when the load began
}

// mem is the closed loop of atm-mem: one client creates and starts each
// instance. The log is wal.Discard and not a wal.MemLog: a MemLog copies
// every record's value map, which measured 0.4 us a record and 15% of
// the op, and this workload is the one a wal change must not move.
func (n *navRound) mem() error {
	log := wal.Discard
	if n.tr != nil {
		log = tracedLog{n.tr, log}
	}
	start := time.Now()
	for op := range n.insts {
		t0 := time.Now()
		inst, err := n.e.CreateInstance(n.r.c.processOf(op), nil, log)
		if err != nil {
			return err
		}
		n.errs[op] = inst.Start()
		end := time.Now()
		n.insts[op] = inst
		n.out.lat[op] = end.Sub(t0)
		if n.tr != nil {
			t := &n.tr.ops[op]
			t.start, t.end = int64(t0.Sub(n.tr.base)), int64(end.Sub(n.tr.base))
		}
	}
	n.out.elapsed = time.Since(start)
	return nil
}

// fleet runs a round of fleet-durable (closed loop) or arrive-open
// (open loop) through a fresh engine.Fleet.
func (n *navRound) fleet() error {
	r := n.r
	open := r.workload == "arrive-open"
	n.dir = filepath.Join(r.dir, fmt.Sprintf("round-%04d", r.roundNo))
	fs := flushFS{flush: durableFlush}
	cfg := engine.FleetConfig{Shards: fleetShards, Parallel: 1}
	if open {
		fs.flush = 0
		cfg.MaxQueue = r.ops // admission never blocks the generator
		cfg.HotQueue = hotQueue
	}
	logs := make([]*shardLog, fleetShards)
	closeLogs := func() error {
		var first error
		for _, l := range logs {
			if l == nil {
				continue
			}
			if err := l.close(); first == nil {
				first = err
			}
		}
		return first
	}
	for shard := range logs {
		var err error
		if logs[shard], err = openShardLog(filepath.Join(n.dir, engine.ShardDirName(shard)), fs); err != nil {
			closeLogs()
			return err
		}
	}
	cfg.WrapLog = func(shard int, _ wal.Log) wal.Log {
		if n.tr != nil {
			return tracedLog{n.tr, logs[shard].group}
		}
		return logs[shard].group
	}
	f, err := engine.NewFleet(n.e, cfg)
	if err != nil {
		closeLogs()
		return err
	}
	if open {
		err = n.openLoop(f)
	} else {
		err = n.closedLoop(f)
	}
	f.Drain()
	n.out.elapsed = time.Since(n.start)
	// Closing runs the checkpointers' last pass; it is outside the timed
	// part, and its counts belong to the round.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if cerr := closeLogs(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	n.out.counts[cDiskBytes], err = dirSize(n.dir)
	return err
}

// submit hands op to the fleet. origin is where the op's latency
// starts: the call itself in the closed loop, the scheduled arrival in
// the open loop. done, when non-nil, runs on the worker after the op.
func (n *navRound) submit(f *engine.Fleet, op int, origin time.Time, done func()) error {
	t0 := time.Now()
	inst, err := f.Submit(n.r.c.processOf(op), nil, func(_ *engine.Instance, err error) {
		end := time.Now()
		n.errs[op] = err
		n.out.lat[op] = end.Sub(origin)
		if n.tr != nil {
			n.tr.ops[op].end = int64(end.Sub(n.tr.base))
		}
		if done != nil {
			done()
		}
	})
	t1 := time.Now()
	if err != nil {
		return err
	}
	n.insts[op] = inst
	n.out.submit += t1.Sub(t0)
	if n.tr != nil {
		t := &n.tr.ops[op]
		t.start = int64(origin.Sub(n.tr.base))
		t.submitStart, t.submitEnd = int64(t0.Sub(n.tr.base)), int64(t1.Sub(n.tr.base))
	}
	return nil
}

// closedLoop is fleet-durable's load: each client submits an op, waits
// for it to finish and submits the next. The engine numbers instances
// in Submit order and an op's seeded outcome hangs on its instance ID,
// so taking the next op and submitting it is one critical section: op k
// is inst-<k+1> in every round.
func (n *navRound) closedLoop(f *engine.Fleet) error {
	var (
		mu       sync.Mutex
		next     int
		firstErr error
		wg       sync.WaitGroup
	)
	n.start = time.Now()
	for c := 0; c < durableClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := make(chan struct{}, 1)
			for {
				mu.Lock()
				op := next
				if op >= n.r.ops || firstErr != nil {
					mu.Unlock()
					return
				}
				next++
				err := n.submit(f, op, time.Now(), func() { done <- struct{}{} })
				if err != nil {
					firstErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
				<-done
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// openLoop is arrive-open's load: one generator submits each op at its
// scheduled time whether or not earlier ones have finished. time.Sleep
// overshoots by about half a millisecond on an idle box, several times
// the op itself, so the generator sleeps only to within spinWindow of
// an arrival and yields in a loop from there.
func (n *navRound) openLoop(f *engine.Fleet) error {
	const spinWindow = 2 * time.Millisecond
	sched := arrivals(n.r.seed, n.r.roundNo, n.r.ops)
	n.out.genLag = make([]time.Duration, n.r.ops)
	n.start = time.Now()
	for op, due := range sched {
		for {
			wait := due - time.Since(n.start)
			if wait <= 0 {
				break
			}
			if wait > spinWindow {
				time.Sleep(wait - spinWindow)
			} else {
				runtime.Gosched()
			}
		}
		n.out.genLag[op] = time.Since(n.start) - due
		if err := n.submit(f, op, n.start.Add(due), nil); err != nil {
			return err
		}
	}
	return nil
}

// finish checks every op of the round against the native executors,
// and reopens a fleet round's directory to confirm that every
// acknowledged instance is in it.
func (n *navRound) finish() (int, error) {
	r := n.r
	bad := make([]error, len(n.insts))
	for op, inst := range n.insts {
		err := n.errs[op]
		if err == nil {
			err = r.c.check(op, inst, r.want[op])
		}
		if err == nil && inst.ID() != r.ids[op] {
			err = fmt.Errorf("op %d ran as %s, want %s", op, inst.ID(), r.ids[op])
		}
		bad[op] = err
	}
	if n.dir != "" {
		n.reopen(bad)
	}
	if n.dir != "" {
		if err := os.RemoveAll(n.dir); err != nil {
			return 0, err
		}
	}
	return reportFailures(bad), nil
}

// reopen recovers the round's fleet directory as a restarted server
// would. A finished instance is either named in a shard checkpoint's
// done list or recovered from checkpoint and tail with the history the
// native executor gives.
func (n *navRound) reopen(bad []error) {
	r := n.r
	failAll := func(err error) {
		for op := range bad {
			if bad[op] == nil {
				bad[op] = fmt.Errorf("reopening %s: %w", n.dir, err)
			}
		}
	}
	e, err := r.c.newEngine(r.seed, nil, engine.WithMetrics(obs.NewRegistry()))
	if err != nil {
		failAll(err)
		return
	}
	recovered, err := engine.RecoverFleet(e, n.dir, func(string) wal.Log { return wal.Discard })
	if err != nil {
		failAll(err)
		return
	}
	present := make(map[string]*engine.Instance, len(recovered))
	for _, inst := range recovered {
		present[inst.ID()] = inst
	}
	done := map[string]bool{}
	dirs, err := engine.ShardDirs(n.dir)
	if err != nil {
		failAll(err)
		return
	}
	for _, dir := range dirs {
		cp, err := wal.LoadCheckpoint(dir)
		if err != nil {
			failAll(err)
			return
		}
		if cp != nil {
			for _, id := range cp.Done {
				done[id] = true
			}
		}
	}
	for op, id := range r.ids {
		if bad[op] != nil {
			continue
		}
		if inst, ok := present[id]; ok {
			bad[op] = r.c.check(op, inst, r.want[op])
		} else if !done[id] {
			bad[op] = fmt.Errorf("op %d (%s): acknowledged, but not in %s after reopening", op, id, n.dir)
		}
	}
}

// reportFailures prints the first few failed ops and returns how many
// there are.
func reportFailures(bad []error) int {
	failed := 0
	for _, err := range bad {
		if err == nil {
			continue
		}
		if failed++; failed <= 5 {
			fmt.Fprintln(os.Stderr, "FAILED:", err)
		}
	}
	return failed
}
