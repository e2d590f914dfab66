package sim

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/atm/saga"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rm"
	"repro/internal/wal"
)

// The crash sweep is the one driver behind the forward-recovery soaks
// E7–E12 (§3.3: after a crash a workflow resumes where it stopped and
// finishes as if nothing happened). A soak is a list of rows — a workload
// on a log stack under a fault plan. The driver runs each row crash-free
// once, which sizes the plan and fixes the baseline, then once per cut
// the plan names, and holds every run to every oracle that applies to the
// row (line.cut). A row prints one line per fault of its plan.

// sweepRow is one soak: a workload on a log stack under a fault plan.
type sweepRow struct {
	work  workload
	stack stack
	plan  planKind

	// Hooks for the driver's own test: wrap sits between the ack tracker
	// and the stack; recoverWith builds the recovery engine (nil: the
	// workload's).
	wrap        func(wal.Log) wal.Log
	recoverWith func() *engine.Engine
}

func (row *sweepRow) String() string { return row.work.name + " on " + row.stack.String() }

// serial reports whether the row's records reach the log one instance at
// a time, so a rerun writes the crash-free run's bytes and cut k keeps
// exactly k records.
func (row *sweepRow) serial() bool { return row.work.n == 1 }

// workload is what a row runs: n instances of one process, serially or as
// a fleet.
type workload struct {
	name     string
	mk       func(opts ...engine.Option) (*engine.Engine, string)
	n        int // instances; 1 runs one serially, more run as a fleet
	parallel int // fleet workers per shard
	// eras: a text-era session runs one instance to completion first and
	// the stack reopens its directory for the row's instance; no cut falls
	// in the first session.
	eras bool
	spec *saga.Spec // non-nil: the saga guarantee holds on every history
}

var (
	travelRun   = workload{name: "travel saga abort@book_car", mk: travelWorkload, n: 1, spec: TravelSaga()}
	flexibleRun = workload{name: "flexible Fig.3 abort@T6", mk: flexibleWorkload, n: 1}
	chainRun    = workload{name: "chain(5)", mk: func(opts ...engine.Option) (*engine.Engine, string) {
		e := engine.New(opts...)
		mustRegister(e, "ok", OKProgram)
		if err := e.RegisterProcess(Chain("chain", 5)); err != nil {
			panic(err)
		}
		return e, "chain"
	}}
)

// fleetOf is w run as a fleet of n instances, parallel at a time per shard.
func fleetOf(w workload, n, parallel int) workload {
	w.name = fmt.Sprintf("fleet %dx %s", n, w.name)
	w.n, w.parallel = n, parallel
	return w
}

// logKind is the shape of a log stack.
type logKind int

const (
	fileLog       logKind = iota // a FileLog, fsync on append
	segmentLog                   // a SegmentedLog, fsync on append
	groupFile                    // a GroupCommitLog over a FileLog
	groupSegments                // a GroupCommitLog over a SegmentedLog
	shardFleet                   // an engine.Fleet: a group-committed segment directory per shard
)

// stack is the log a row's workload appends to. The cuts of a fleet of
// shards kill the file system beneath its busiest shard only.
type stack struct {
	kind   logKind
	format wal.Format
	segMax int // records per segment
	shards int // shardFleet
	// ckpt makes the row checkpointed: a checkpoint pass after the run folds
	// the segments sealed before the crash. ckptEvery > 0 adds a pass after
	// the barrier that crosses every ckptEvery records.
	ckpt      bool
	ckptEvery int
	archive   *archiveState // an archiver behind the checkpointer
}

func (s stack) String() string {
	name := [...]string{"file", "segmented", "group commit / file", "group commit / segmented", ""}[s.kind]
	if s.kind == shardFleet {
		name = fmt.Sprintf("%d shards x group commit / segmented", s.shards)
	}
	name += " " + s.format.String()
	if s.ckptEvery > 0 {
		name += fmt.Sprintf(", ckpt/%d", s.ckptEvery)
	} else if s.ckpt {
		name += ", ckpt"
	}
	if s.archive != nil {
		name += ", archive " + s.archive.name
	}
	return name
}

// archiveState is the archive a checkpointed stack copies to: the store
// cut k sees over its backing store, and how long a run waits for the
// archiver to drain.
type archiveState struct {
	name  string
	store func(inner wal.Store, k int) wal.Store
	drain time.Duration
}

// storeFaults are the typed faults a wal.FaultStore injects.
var storeFaults = []wal.StoreFaultKind{wal.StoreUnavailable, wal.StoreTimeout, wal.StorePartialWrite, wal.StoreCorruptRead}

var (
	healthy = &archiveState{"healthy", func(in wal.Store, _ int) wal.Store { return in }, 2 * time.Second}
	// flaky injects one transient fault, its kind and op rotating with k.
	flaky = &archiveState{"flaky", func(in wal.Store, k int) wal.Store {
		return wal.NewFaultStore(in, storeFaults[k%len(storeFaults)], int64(1+k%3), wal.StoreTimeoutDelay(time.Millisecond))
	}, 2 * time.Second}
	// down fails every op; a drain would only time out.
	down = &archiveState{"down", func(in wal.Store, _ int) wal.Store {
		return wal.NewFaultStore(in, wal.StoreUnavailable, 1, wal.StoreSticky())
	}, 0}
)

// planKind is where a row's faults strike; the crash-free run sizes it.
type planKind int

const (
	// crashBytes kills the server at every frame end of the crash-free run
	// (clean) and inside every frame (torn): wal.FaultCrash beneath the log.
	crashBytes planKind = iota
	// fsOps fails a Write (EIO, ENOSPC) or a Sync at every FS op of the
	// crash-free run where a matching op still lies ahead.
	fsOps
	// storeOps injects every FaultStore kind at every archive store op.
	storeOps
)

// crashModes are the two ways a crash cut falls.
var crashModes = []struct {
	name string
	torn bool
}{{"clean crash", false}, {"short write", true}}

// fsFaults are the fsOps faults and the error each surfaces as.
var fsFaults = []struct {
	kind     wal.FaultKind
	sentinel error
}{{wal.FaultEIO, wal.ErrDiskIO}, {wal.FaultENOSPC, wal.ErrDiskFull}, {wal.FaultFsync, wal.ErrFsyncFailed}}

// sweepColumns is the one column set of every sweep report.
var sweepColumns = []string{"workload", "log stack", "fault", "cuts", "fired", "torn tails",
	"ckpt recoveries", "probes refused", "acks lost", "archived", "retries", "oracles ok"}

// sweep runs rows as report id.
func sweep(id, title string, rows ...*sweepRow) *Report {
	r := &Report{ID: id, Title: title, Columns: sweepColumns, Pass: true}
	for _, row := range rows {
		row.sweep(r)
	}
	return r
}

// bothFormats is w on s in the text and the binary record framing.
func bothFormats(w workload, s stack) []*sweepRow {
	bin := s
	bin.format = wal.FormatBinary
	return []*sweepRow{{work: w, stack: s}, {work: w, stack: bin}}
}

// crashFree is the crash-free run of a crash sweep: write runs over a
// count-only crash file system and returns the log it left. crashFree
// returns how many records that log holds and crashAt: a file system that
// kills a rerun writing the same bytes after record k — at its frame end,
// or torn, inside record k+1 (wal.CrashCut) — and the byte it dies at.
func crashFree(write func(*wal.FaultFS) (string, error)) (int, func(k int, torn bool) (*wal.FaultFS, int64), error) {
	path, err := write(wal.NewFaultFS(wal.FaultCrash, 0))
	if err != nil {
		return 0, nil, err
	}
	ends, err := wal.FrameEnds(path)
	return len(ends), func(k int, torn bool) (*wal.FaultFS, int64) {
		b := wal.CrashCut(ends, k, torn)
		return wal.NewFaultFS(wal.FaultCrash, b), b
	}, err
}

// trial is what one run of a row left behind.
type trial struct {
	err      error // the first failure the workload saw
	hung     bool  // the run did not drain within its bound
	probe    error // an append to the log after err (a dead log refuses it)
	ckptErr  error // the checkpoint passes
	closeErr error
	finished []*engine.Instance
	want     int             // instances on logs the fault cannot reach: they finish
	skip     int             // records of the first era, where no cut falls
	logs     []string        // every log of the run, the faulted one first
	track    *ackTrackingLog // the faulted log's acknowledged appends
	reg      *obs.Registry
}

var probeRecord = wal.Record{Instance: "probe", Type: "probe"}

// bounded runs f under a watchdog: a run that does not drain in 30 s — a
// deadlock after a fault, a leaked worker — is itself a failure.
func bounded(f func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	timer := time.NewTimer(30 * time.Second)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		return false
	}
}

// drive runs n instances of proc on log, serially or as a one-shard fleet.
func (t *trial) drive(e *engine.Engine, proc string, n, parallel int, log wal.Log) {
	t.hung = !bounded(func() {
		if n == 1 {
			inst, err := e.CreateInstance(proc, nil, log)
			if err == nil {
				err = inst.Start()
			}
			t.err = err
			if err == nil && inst.Finished() {
				t.finished = append(t.finished, inst)
			}
			return
		}
		res, err := runFleet(e, proc, n, parallel, log)
		t.fleet(res, err)
	})
}

// fleet takes a fleet run's outcome.
func (t *trial) fleet(res *engine.FleetResult, err error) {
	if t.err = err; err != nil {
		return
	}
	if res.Failed > 0 {
		t.err = res.Err
	}
	for _, inst := range res.Instances {
		if inst.Finished() {
			t.finished = append(t.finished, inst)
		}
	}
}

// open opens one session of the stack in dir over fs, counting in reg: the
// log to append to, the segmented log beneath it (nil over a file) and
// how to close it.
func (s stack) open(dir string, fs wal.FS, reg *obs.Registry) (wal.Log, *wal.SegmentedLog, func() error, error) {
	group := s.kind == groupFile || s.kind == groupSegments
	if s.kind == fileLog || s.kind == groupFile {
		opts := []wal.FileOption{wal.WithFormat(s.format), wal.WithFS(fs), wal.WithMetricsRegistry(reg)}
		if !group {
			opts = append(opts, wal.WithFsync())
		}
		flog, err := wal.OpenFileLog(filepath.Join(dir, "log.wal"), opts...)
		if err != nil || !group {
			return flog, nil, flog.Close, err
		}
		g := wal.NewGroupCommitLog(flog, wal.GroupWithMetricsRegistry(reg))
		return g, nil, g.Close, nil
	}
	opts := []wal.SegmentOption{wal.SegmentMaxRecords(s.segMax), wal.SegmentFormat(s.format),
		wal.SegmentFS(fs), wal.SegmentMetricsRegistry(reg)}
	if !group {
		opts = append(opts, wal.SegmentFsync())
	}
	slog, err := wal.OpenSegmentedLog(dir, opts...)
	if err != nil || !group {
		return slog, slog, slog.Close, err
	}
	g := wal.NewGroupCommitSegmented(slog, wal.GroupWithMetricsRegistry(reg))
	return g, slog, g.Close, nil
}

// run executes the row's workload once on a fresh stack in dir, over the
// file system fs beneath the faulted log and the archive st.
func (row *sweepRow) run(dir string, fs wal.FS, st wal.Store) *trial {
	w, s := row.work, row.stack
	t := &trial{reg: obs.NewRegistry(), track: &ackTrackingLog{}, logs: []string{dir}}
	if s.kind == fileLog || s.kind == groupFile {
		t.logs[0] = filepath.Join(dir, "log.wal")
	}
	if t.err = errors.Join(os.RemoveAll(dir), os.MkdirAll(dir, 0o755)); t.err != nil {
		return t
	}
	e, proc := w.mk()
	if s.kind == shardFleet {
		return row.runShards(t, e, proc, dir, fs)
	}
	if w.eras {
		// The text era: plain segments, written through fs too so a crash
		// byte counts from the directory's first byte.
		slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(s.segMax), wal.SegmentFS(fs))
		if err != nil {
			t.err = err
			return t
		}
		t.track.inner = slog
		t.drive(e, proc, 1, 1, t.track)
		if t.err = errors.Join(t.err, slog.Close()); t.err != nil || t.hung {
			return t
		}
		t.skip = len(t.track.acked)
	}
	log, seg, closeLog, err := s.open(dir, fs, t.reg)
	if err != nil {
		t.err = err
		return t
	}
	var ck *engine.Checkpointer
	var cl *checkpointingLog
	var arch *wal.Archiver
	if s.ckpt {
		var opts []engine.CheckpointerOption
		if st != nil {
			arch = wal.NewArchiver(st, wal.ArchiveOpTimeout(250*time.Millisecond),
				wal.ArchiveBackoff(time.Millisecond, 4*time.Millisecond), wal.ArchiveBreakerAfter(2),
				wal.ArchiveBreakerCooldown(2*time.Millisecond), wal.ArchiveMetricsRegistry(t.reg), wal.ArchiveSeed(1))
			arch.Start()
			opts = append(opts, engine.CheckpointArchive(arch))
		}
		ck = engine.NewCheckpointer(seg, opts...)
		if s.ckptEvery > 0 {
			cl = &checkpointingLog{inner: log, ck: ck, every: s.ckptEvery}
			log = cl
		}
	}
	if row.wrap != nil {
		log = row.wrap(log)
	}
	t.track.inner = log
	t.drive(e, proc, w.n, w.parallel, t.track)
	if t.hung {
		return t
	}
	if t.err != nil {
		t.probe = t.track.Append(probeRecord)
	}
	if ck != nil {
		// The checkpointer reads only sealed, immutable segments, so a pass
		// after the crash is the pass a background checkpointer ran just
		// before it.
		if t.ckptErr = ck.CheckpointNow(); cl != nil && cl.err != nil {
			t.ckptErr = cl.err
		}
	}
	if arch != nil {
		if s.archive.drain > 0 {
			arch.Drain(s.archive.drain)
		}
		arch.Stop()
	}
	t.closeErr = closeLog()
	return t
}

// runShards is run on a fleet of shards. Placement is pure hash
// (NoRebalance), the same in every run, so the faulted shard — the one
// most instances live on — is the same too; the others keep serving.
func (row *sweepRow) runShards(t *trial, e *engine.Engine, proc, dir string, fs wal.FS) *trial {
	w, s := row.work, row.stack
	placed := make([]int, s.shards)
	for i := 1; i <= w.n; i++ {
		placed[engine.ShardFor(fmt.Sprintf("inst-%d", i), s.shards)]++
	}
	victim := 0
	for i, n := range placed {
		if n > placed[victim] {
			victim = i
		}
	}
	t.want = w.n - placed[victim]
	t.logs = []string{filepath.Join(dir, engine.ShardDirName(victim))}
	for i := 0; i < s.shards; i++ {
		if i != victim {
			t.logs = append(t.logs, filepath.Join(dir, engine.ShardDirName(i)))
		}
	}
	f, err := engine.NewFleet(e, engine.FleetConfig{
		Shards: s.shards, Dir: dir, Parallel: w.parallel, MaxQueue: w.n,
		NoRebalance: true, GroupCommit: true, SegmentMaxRecords: s.segMax,
		FS: func(shard int) wal.FS {
			if shard == victim {
				return fs
			}
			return wal.OSFS{}
		},
		WrapLog: func(shard int, log wal.Log) wal.Log {
			if shard != victim {
				return log
			}
			if row.wrap != nil {
				log = row.wrap(log)
			}
			t.track.inner = log
			return t.track
		},
	})
	if err != nil {
		t.err = err
		return t
	}
	if t.hung = !bounded(func() { t.fleet(f.Run(proc, w.n, nil)) }); t.hung {
		return t
	}
	if t.err != nil {
		t.probe = t.track.Append(probeRecord)
	}
	t.closeErr = f.Close()
	return t
}

// sweep runs one row: the crash-free run, then every fault of its plan at
// every cut, one report line per fault.
func (row *sweepRow) sweep(r *Report) {
	root, err := os.MkdirTemp("", "wal-sweep")
	if err != nil {
		r.fail(err)
		return
	}
	defer os.RemoveAll(root)
	dir, archDir := filepath.Join(root, "log"), filepath.Join(root, "arch")
	// archive gives each run an empty backing store.
	archive := func() (wal.Store, error) {
		if err := os.RemoveAll(archDir); err != nil {
			return nil, err
		}
		return wal.NewDirStore(archDir)
	}

	// The crash-free run sizes the plan and is the baseline. A down archive
	// prunes nothing, so every frame stays on disk to be measured.
	var base *trial
	var frames int
	var crashAt func(int, bool) (*wal.FaultFS, int64)
	sizer, sizing := row, wal.Store(nil)
	in, err := archive()
	if err != nil {
		r.fail(err)
		return
	}
	if row.stack.archive != nil && row.plan != storeOps {
		dead := *row
		dead.stack.archive = down
		sizer, sizing = &dead, down.store(in, 0)
	}
	trace := &opTraceFS{inner: wal.OSFS{}}
	counter := wal.NewFaultStore(in, wal.StoreUnavailable, 0)
	switch row.plan {
	case crashBytes:
		frames, crashAt, err = crashFree(func(fs *wal.FaultFS) (string, error) {
			base = sizer.run(dir, fs, sizing)
			return base.logs[0], base.err
		})
	case fsOps:
		base = sizer.run(dir, trace, sizing)
	case storeOps:
		base = row.run(dir, wal.OSFS{}, counter)
	}
	want := row.work.n
	if row.work.eras {
		want++
	}
	err = errors.Join(err, base.err, base.closeErr, base.ckptErr)
	switch {
	case err == nil && base.hung:
		err = errors.New("did not drain")
	case err == nil && len(base.finished) != want:
		err = fmt.Errorf("%d of %d instances finished", len(base.finished), want)
	case err == nil && !base.track.batched():
		err = errors.New("the log's AppendBatch never carried a multi-record barrier")
	case err == nil && row.work.spec != nil:
		err = saga.CheckGuarantee(row.work.spec, sagaEventsFromRuns(row.work.spec, base.finished[0]))
	}
	if err != nil {
		r.fail(fmt.Errorf("%s %s crash-free run: %w", r.ID, row, err))
		return
	}
	ln := func(fault string) *line {
		return &line{row: row, id: r.ID, fault: fault, dir: dir, base: base.finished[0],
			trail: fmt.Sprint(trailStrings(base.finished[0])), goroutines: runtime.NumGoroutine()}
	}

	switch row.plan {
	case crashBytes:
		for _, m := range crashModes {
			l := ln(m.name)
			for k := base.skip + 1; k < frames && l.err == nil; k++ {
				fs, b := crashAt(k, m.torn)
				c := cut{k: k, b: b, torn: m.torn, fs: fs}
				if a := row.stack.archive; a != nil {
					if c.inner, l.err = archive(); l.err != nil {
						break
					}
					c.st = a.store(c.inner, k)
				}
				l.cut(c)
			}
			l.finish(r)
		}
	case fsOps:
		for _, f := range fsFaults {
			l := ln(f.kind.String())
			for k := int64(1); k <= trace.lastMatch(f.kind) && l.err == nil; k++ {
				l.cut(cut{k: int(k), fs: wal.NewFaultFS(f.kind, k), sentinel: f.sentinel})
			}
			l.finish(r)
		}
	case storeOps:
		for _, kind := range storeFaults {
			l := ln(kind.String())
			for k := int64(1); k <= counter.Ops() && l.err == nil; k++ {
				in, err := archive()
				if l.err = err; err != nil {
					break
				}
				sf := wal.NewFaultStore(in, kind, k, wal.StoreTimeoutDelay(time.Millisecond))
				l.cut(cut{k: int(k), st: sf, inner: in, sf: sf})
			}
			l.finish(r)
		}
	}
}

// cut is one faulted run of a row.
type cut struct {
	k        int
	b        int64 // the crash byte; 0 when the fault is no crash
	torn     bool
	fs       *wal.FaultFS // the file-system fault (nil: none)
	sentinel error        // the error the file-system fault surfaces as
	// st is the archive the run sees, inner its backing store.
	st, inner wal.Store
	sf        *wal.FaultStore // the store fault (nil: none)
}

// line is one printed line of a sweep — one fault of one row — with the
// counts its oracles kept and the first check that failed.
type line struct {
	row                                    *sweepRow
	id, fault, dir                         string
	base                                   *engine.Instance // a crash-free instance
	trail                                  string           // its audit trail
	goroutines                             int              // alive before the line's runs
	cuts, fired, torn, ckpt, refused, lost int
	archived, retries                      int64
	err                                    error
}

// cut runs the row once under c and checks every oracle that applies.
func (l *line) cut(c cut) {
	row := l.row
	fail := func(check string, err error) {
		if l.err == nil {
			at := ""
			if c.b > 0 {
				at = fmt.Sprintf(" byte=%d", c.b)
			}
			l.err = fmt.Errorf("%s %s/%s k=%d%s: %s: %w", l.id, row, l.fault, c.k, at, check, err)
		}
	}
	var fs wal.FS = wal.OSFS{}
	if c.fs != nil {
		fs = c.fs
	}
	l.cuts++
	t := row.run(l.dir, fs, c.st)
	if t.hung {
		fail("drains in bounded time", errors.New("the run did not drain within 30 s"))
		return
	}
	counts := t.reg.Snapshot().Counters
	l.archived += counts["wal.archive.archived"]
	l.retries += counts["wal.archive.retries"]

	// The fault fired and surfaced, typed.
	switch {
	case c.fs != nil && c.fs.Fired():
		l.fired++
	case c.sf != nil && c.sf.Fired():
		l.fired++
	case c.fs != nil:
		fail("the fault fired", fmt.Errorf("it never fired (run: %v)", t.err))
	}
	switch {
	case c.b > 0 && !errors.Is(t.err, wal.ErrCrash):
		fail("the crash fired", fmt.Errorf("the run returned %v", t.err))
	case c.sentinel != nil && t.err != nil && !errors.Is(t.err, c.sentinel) && !errors.Is(t.err, wal.ErrLogFailed):
		fail("failures are typed", t.err)
	case c.sentinel != nil && t.err == nil && t.closeErr == nil:
		fail("the fault surfaces", errors.New("neither the run nor Close reported it"))
	case c.fs == nil && t.err != nil:
		fail("archive faults never stall the log", t.err)
	}
	if t.ckptErr != nil {
		fail("checkpoint passes", t.ckptErr)
	}
	if len(t.finished) < t.want {
		fail("the fault reaches one shard only", fmt.Errorf("%d of %d instances elsewhere finished", len(t.finished), t.want))
	}
	if t.err != nil {
		if errors.Is(t.probe, wal.ErrLogFailed) || (c.b > 0 && errors.Is(t.probe, wal.ErrCrash)) {
			l.refused++
		} else {
			fail("a dead log refuses appends", fmt.Errorf("probe append = %v", t.probe))
		}
	}

	// What is on disk: the bytes below the cut, the archive gate.
	local, pruned, nPruned, err := logBytes(t.logs[0], c.inner)
	if err != nil {
		fail("the archive gate holds", err)
	}
	if row.stack.archive == down && (nPruned > 0 || counts["wal.archive.archived"] > 0) {
		fail("a down archive prunes nothing", fmt.Errorf("%d segments pruned, %d blobs archived", nPruned, counts["wal.archive.archived"]))
	}
	clean := false
	if c.b > 0 {
		ends, err := wal.FrameEnds(t.logs[0])
		if err == nil && local+pruned != c.b {
			err = fmt.Errorf("%d bytes left", local+pruned)
		}
		if err != nil {
			fail("the crash leaves the bytes below the cut", err)
		}
		clean = len(ends) > 0 && ends[len(ends)-1]+pruned == c.b
	}

	// The whole history: repaired, no acknowledged append lost.
	started := map[string]bool{}
	var whole *wal.History
	for _, path := range t.logs {
		h, err := wal.Ladder{Path: path, Full: true, Store: c.inner}.Recover()
		if err != nil {
			fail("the log repairs", err)
			return
		}
		if whole == nil {
			whole = h
		}
		for _, rec := range h.Tail {
			started[rec.Instance] = true
		}
	}
	if whole.Torn > 0 {
		l.torn++
	}
	if c.b > 0 && (whole.Torn > 0) == clean {
		fail("the tail is torn iff the cut is not a frame end", fmt.Errorf("%d bytes torn, frame end %v", whole.Torn, clean))
	}
	if c.b > 0 && row.serial() && (len(whole.Tail) != c.k || (whole.Torn > 0) != c.torn) {
		fail("k records kept, torn iff the cut is", fmt.Errorf("%d records kept, %d bytes torn", len(whole.Tail), whole.Torn))
	}
	if n := t.track.lost(whole.Tail); n > 0 {
		l.lost += n
		fail("no acknowledged append lost", fmt.Errorf("%d acknowledged appends missing", n))
	}

	// Recovery: every started instance finishes as in the crash-free run.
	re, _ := row.work.mk()
	if row.recoverWith != nil {
		re = row.recoverWith()
	}
	var insts []*engine.Instance
	done := 0
	for i, path := range t.logs {
		got, h, err := engine.RecoverLadder(re, wal.Ladder{Path: path, Store: c.st}, nil)
		if err != nil {
			fail("recovery", err)
			return
		}
		if h.Torn != 0 {
			fail("the repair holds", fmt.Errorf("a second walk found %d torn bytes", h.Torn))
		}
		if i == 0 && h.Checkpoint != nil {
			l.ckpt++
		}
		insts = append(insts, got...)
		done += len(h.Done())
	}
	if len(insts)+done != len(started) {
		fail("every started instance recovers", fmt.Errorf("%d recovered + %d done of %d", len(insts), done, len(started)))
	}
	for _, inst := range insts {
		if !inst.Finished() || !inst.Output().Equal(l.base.Output()) || fmt.Sprint(trailStrings(inst)) != l.trail {
			fail("recovered = crash-free run", fmt.Errorf("%s: finished %v (%v), trail %v", inst.ID(), inst.Finished(), inst.Err(), trailStrings(inst)))
		}
		if spec := row.work.spec; spec != nil {
			if err := saga.CheckGuarantee(spec, sagaEventsFromRuns(spec, inst)); err != nil {
				fail("compensation order", err)
			}
		}
	}
}

// finish checks what holds across the line's cuts and prints it.
func (l *line) finish(r *Report) {
	row := l.row
	fail := func(check string, err error) {
		if l.err == nil {
			l.err = fmt.Errorf("%s %s/%s: %s: %w", l.id, row, l.fault, check, err)
		}
	}
	crash := row.plan == crashBytes
	switch {
	case row.stack.ckpt && l.ckpt == 0:
		fail("a checkpoint seeds recovery", errors.New("no recovery started from a checkpoint"))
	case crash && row.stack.archive == healthy && l.retries != 0:
		fail("a healthy archive needs no retry", fmt.Errorf("%d retries", l.retries))
	case crash && row.stack.archive == down && l.retries == 0:
		fail("a down archive is retried", errors.New("no retries"))
	case row.plan == storeOps && (l.fired == 0 || l.retries == 0):
		fail("the archiver retries through faults", fmt.Errorf("%d faults fired, %d retries", l.fired, l.retries))
	}
	// Transient workers must have exited once the runs drained.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > l.goroutines+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > l.goroutines+2 {
		fail("no goroutine leaks", fmt.Errorf("%d goroutines before, %d after", l.goroutines, n))
	}
	if l.err != nil {
		r.Pass = false
		if r.Err == nil {
			r.Err = l.err
		}
	}
	r.AddRow(row.work.name, row.stack.String(), l.fault, fmt.Sprint(l.cuts), fmt.Sprint(l.fired),
		fmt.Sprint(l.torn), fmt.Sprint(l.ckpt), fmt.Sprint(l.refused), fmt.Sprint(l.lost),
		fmt.Sprint(l.archived), fmt.Sprint(l.retries), yesNo(l.err == nil))
}

// logBytes sizes the log at path — a file, or a segment directory end to
// end — and checks the archive gate: a segment missing below the newest
// local one was pruned, which retention does only once st holds a copy
// that strict-parses clean; that copy's bytes count as pruned.
func logBytes(path string, st wal.Store) (local, pruned int64, n int, err error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, 0, err
	}
	if !fi.IsDir() {
		return fi.Size(), 0, 0, nil
	}
	segs, err := wal.ListSegments(path)
	if err != nil {
		return 0, 0, 0, err
	}
	have := map[int]bool{}
	for _, s := range segs {
		have[s.Index] = true
	}
	for i := 1; len(segs) > 0 && i < segs[len(segs)-1].Index; i++ {
		if have[i] {
			continue
		}
		var data []byte
		err := errors.New("no archive")
		if st != nil {
			if data, err = st.Get(fmt.Sprintf("wal-%06d.seg", i)); err == nil {
				_, err = wal.ReadAll(bytes.NewReader(data))
			}
		}
		if err != nil {
			return 0, 0, n, fmt.Errorf("segment %d pruned without a clean archived copy: %w", i, err)
		}
		pruned += int64(len(data))
		n++
	}
	return segmentBytes(path), pruned, n, nil
}

// ackTrackingLog wraps a Log and records every acknowledged append — the
// ground truth of the durability oracle: an append whose error was nil
// survives any later crash. It takes a navigation step's records the way
// the engine hands them over, as one batch — all acknowledged on nil, none
// on error — so the log beneath sees the production path; calls counts
// the acknowledged batches.
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
// the run drove the log's AppendBatch, not a per-record fallback.
func (l *ackTrackingLog) batched() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calls > 0 && len(l.acked) > l.calls
}

// lost counts the acknowledged appends that are not among recovered.
func (l *ackTrackingLog) lost(recovered []wal.Record) (n int) {
	key := func(r wal.Record) string { return fmt.Sprintf("%s|%s|%s|%d", r.Instance, r.Type, r.Path, r.Iter) }
	onDisk := make(map[string]bool, len(recovered))
	for _, rec := range recovered {
		onDisk[key(rec)] = true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rec := range l.acked {
		if !onDisk[key(rec)] {
			n++
		}
	}
	return n
}

// checkpointingLog wraps a Log and runs a synchronous checkpoint pass
// every `every` acknowledged records — a deterministic stand-in for the
// background Checkpointer, so reruns are reproducible down to which
// records each checkpoint covers. A navigation step's records go down as
// the one batch the engine hands over; a pass runs after the batch that
// crosses a multiple of `every`.
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

// opTraceFS records whether each FS operation of a run is a write or a
// sync, so an fsOps plan schedules each fault kind only at boundaries
// where a matching operation still lies ahead (an EIO scheduled after the
// run's last write would never fire).
type opTraceFS struct {
	inner wal.FS
	mu    sync.Mutex
	syncs []bool
}

func (fs *opTraceFS) Create(path string) (wal.File, error) {
	f, err := fs.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &opTraceFile{fs: fs, f: f}, nil
}

func (fs *opTraceFS) Rename(oldpath, newpath string) error {
	return fs.inner.Rename(oldpath, newpath)
}

func (fs *opTraceFS) record(isSync bool) {
	fs.mu.Lock()
	fs.syncs = append(fs.syncs, isSync)
	fs.mu.Unlock()
}

// lastMatch returns the highest 1-based boundary at which a fault of the
// given kind can still fire (0 if none).
func (fs *opTraceFS) lastMatch(kind wal.FaultKind) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for i := len(fs.syncs) - 1; i >= 0; i-- {
		if fs.syncs[i] == (kind == wal.FaultFsync) {
			return int64(i + 1)
		}
	}
	return 0
}

type opTraceFile struct {
	fs *opTraceFS
	f  wal.File
}

func (f *opTraceFile) Write(p []byte) (int, error) {
	f.fs.record(false)
	return f.f.Write(p)
}

func (f *opTraceFile) Sync() error {
	f.fs.record(true)
	return f.f.Sync()
}

func (f *opTraceFile) Close() error { return f.f.Close() }

// sagaEventsFromRuns projects an instance's completed program executions
// onto the rm.Event history the saga guarantee quantifies over: every run
// of a step or compensation program becomes a commit (RC == 0) or abort
// event, in trail order. Runs of runtime helper programs (copy, nop) are
// not part of the observable history and are skipped.
func sagaEventsFromRuns(spec *saga.Spec, inst *engine.Instance) []rm.Event {
	names := make(map[string]bool, 2*len(spec.Steps))
	for _, st := range spec.Steps {
		names[st.Name] = true
		names[st.Compensation] = true
	}
	var events []rm.Event
	for _, pr := range inst.ProgramRuns() {
		if !names[pr.Program] {
			continue
		}
		kind := rm.EvCommit
		if pr.RC != 0 {
			kind = rm.EvAbort
		}
		events = append(events, rm.Event{Name: pr.Program, Kind: kind})
	}
	return events
}

// RunE7 is the crash soak of the file-backed WAL: the travel saga (book_car
// aborts, so every run compensates) and the Figure 3 flexible transaction
// over a durable FileLog, in both record framings, killed at every frame
// end and inside every frame of the crash-free run. The same run writes
// the same bytes, so cut k keeps exactly k records.
func RunE7() *Report {
	file := stack{kind: fileLog}
	return sweep("E7", "WAL soak: byte-offset crash at every frame end and torn cut of a file log, repair, identical outcome",
		append(bothFormats(travelRun, file), bothFormats(flexibleRun, file)...)...)
}

// RunE8 is the group-commit soak: a fleet of concurrent chain instances
// shares one GroupCommitLog, killed at every frame end and torn cut of the
// crash-free run. A concurrent rerun writes other bytes, so a cut falls
// between batches, between the frames of one, or inside a frame; no
// acknowledged append may be lost wherever it falls.
func RunE8() *Report {
	return sweep("E8", "group-commit soak: byte-offset crash at every frame end and torn cut, no acknowledged append lost",
		&sweepRow{work: fleetOf(chainRun, 4, 4), stack: stack{kind: groupFile}})
}

// RunE9 is the checkpointed-recovery soak: both E7 workloads over a durable
// SegmentedLog in both framings, a text-era directory reopened binary, and
// a fleet over a group-committed SegmentedLog — every row checkpointed, so
// recovery climbs the checkpoint ladder. Cuts just after a rotation leave
// an empty or torn fresh segment; cuts inside the compensation phase meet
// checkpoints taken mid-compensation.
func RunE9() *Report {
	seg := stack{kind: segmentLog, segMax: 4, ckpt: true}
	eras := travelRun
	eras.name, eras.eras = "travel saga, text era then binary reopen", true
	bin := seg
	bin.format = wal.FormatBinary
	rows := append(bothFormats(travelRun, seg), bothFormats(flexibleRun, seg)...)
	rows = append(rows, &sweepRow{work: eras, stack: bin},
		&sweepRow{work: fleetOf(chainRun, 4, 4), stack: stack{kind: groupSegments, segMax: 8, ckpt: true}})
	return sweep("E9", "checkpointed recovery soak: byte-offset crash at every frame end and torn cut of a segmented WAL + checkpoint ladder, identical outcome", rows...)
}

// RunE10 is the storage-fault chaos soak: a sequential travel-saga fleet
// over three group-committed stacks, with EIO and ENOSPC write failures
// and post-write fsync failures injected at every FS op of the crash-free
// run. A sequential fleet replays the crash-free op sequence exactly, so
// the sweep is exhaustive: a fault surfaces typed, seals the log, loses
// nothing acknowledged, and the drained fleet recovers with compensations
// in order.
func RunE10() *Report {
	w := fleetOf(travelRun, 2, 1)
	return sweep("E10", "storage-fault chaos soak: EIO/ENOSPC/fsync-fail at every FS op boundary, typed seal, no acked loss",
		&sweepRow{work: w, stack: stack{kind: groupFile}, plan: fsOps},
		&sweepRow{work: w, stack: stack{kind: groupSegments, segMax: 8}, plan: fsOps},
		&sweepRow{work: w, stack: stack{kind: groupSegments, segMax: 8, format: wal.FormatBinary}, plan: fsOps})
}

// RunE11 is the shard-crash soak: a 3-shard travel-saga fleet whose
// busiest shard's file system dies at every frame end and torn cut of its
// crash-free run while the other shards keep serving.
func RunE11() *Report {
	return sweep("E11", "shard-crash soak: byte-offset crash of one shard at every frame end and torn cut, survivors serve, recovery exact",
		&sweepRow{work: fleetOf(travelRun, 6, 2), stack: stack{kind: shardFleet, shards: 3, segMax: 8}})
}

// RunE12 is the archive-tier soak: the travel saga over a durable,
// checkpointed SegmentedLog whose checkpointer archives sealed segments and
// checkpoints and prunes only what the archive verified. It crashes at
// every cut under a healthy, a flaky and a down archive, then runs
// crash-free with every store op of the crash-free run hit by every
// typed store fault: archival never stalls the log, the archiver retries
// through, and recovery stays exact.
func RunE12() *Report {
	s := stack{kind: segmentLog, segMax: 4, ckpt: true, ckptEvery: 4}
	var rows []*sweepRow
	for _, a := range []*archiveState{healthy, flaky, down} {
		s.archive = a
		rows = append(rows, &sweepRow{work: travelRun, stack: s})
	}
	s.archive = healthy
	rows = append(rows, &sweepRow{work: travelRun, stack: s, plan: storeOps})
	return sweep("E12", "archive-tier soak: byte-offset crash at every frame end and torn cut + typed archive faults at every op boundary, gated pruning", rows...)
}
