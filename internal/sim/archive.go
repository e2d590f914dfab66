package sim

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atm/saga"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/wal"
)

// e12ArchiverOpts are the fast test timings every E12 archiver runs
// with: millisecond backoff so retries resolve inside the sweep, a
// breaker that trips after two failures, and a pinned jitter seed so a
// failing case replays byte-for-byte.
func e12ArchiverOpts(reg *obs.Registry) []wal.ArchiverOption {
	return []wal.ArchiverOption{
		wal.ArchiveOpTimeout(250 * time.Millisecond),
		wal.ArchiveBackoff(time.Millisecond, 4*time.Millisecond),
		wal.ArchiveBreakerAfter(2),
		wal.ArchiveBreakerCooldown(2 * time.Millisecond),
		wal.ArchiveMetricsRegistry(reg),
		wal.ArchiveSeed(1),
	}
}

// archiveGateHolds checks the archive-gated pruning invariant over one
// WAL directory: every sealed segment pruned locally (an index gap below
// the newest local segment) must be fetchable from the archive and
// strict-parse clean. A violated gate means retention deleted a local
// file whose archived copy was never verified — exactly the data-loss
// window the gate exists to close.
func archiveGateHolds(dir string, st wal.Store) error {
	segs, err := wal.ListSegments(dir)
	if err != nil {
		return err
	}
	have := map[int]bool{}
	max := 0
	for _, s := range segs {
		have[s.Index] = true
		if s.Index > max {
			max = s.Index
		}
	}
	for i := 1; i <= max; i++ {
		if have[i] {
			continue
		}
		name := fmt.Sprintf("wal-%06d.seg", i)
		data, err := st.Get(name)
		if err != nil {
			return fmt.Errorf("segment %d pruned locally but unreadable in archive: %w", i, err)
		}
		if _, err := wal.ReadAll(bytes.NewReader(data)); err != nil {
			return fmt.Errorf("segment %d pruned locally but archived copy corrupt: %w", i, err)
		}
	}
	return nil
}

// e12Recover runs the full recovery ladder (archive rung included) over
// one crashed case directory and checks the outcome against the
// baseline: exactly one travel instance, finished, baseline trail,
// bit-identical output, and the saga compensation guarantee over its
// program runs.
func e12Recover(dir string, st wal.Store, baseTrail string, base *engine.Instance) error {
	e, _ := travelWorkload()
	insts, h, err := engine.RecoverLadder(e, wal.Ladder{Path: dir, Store: st}, nil)
	if err != nil {
		return err
	}
	doneN := len(h.Done())
	if len(insts)+doneN != 1 {
		return fmt.Errorf("recovered %d + done %d != 1", len(insts), doneN)
	}
	spec := TravelSaga()
	for _, inst := range insts {
		if !inst.Finished() {
			return errors.New("recovered instance did not finish")
		}
		if fmt.Sprint(trailStrings(inst)) != baseTrail {
			return errors.New("recovered trail diverges from baseline")
		}
		if !inst.Output().Equal(base.Output()) {
			return errors.New("recovered output container differs from baseline")
		}
		if err := saga.CheckGuarantee(spec, sagaEventsFromRuns(spec, inst)); err != nil {
			return fmt.Errorf("compensation oracle: %w", err)
		}
	}
	return nil
}

// RunE12 is the archive-tier soak. A travel-saga workload runs over a
// segmented WAL with a synchronous checkpoint pass every 4 appends and
// an Archiver copying every sealed segment and checkpoint into a Store,
// with local pruning gated on verified archived copies. Three parts:
//
//   - Part A — WAL crash sweep × archive states: the server dies at a
//     byte beneath the durable log (wal.FaultCrash) — at every frame end
//     and torn cut of the crash-free run — against a
//     healthy archive (DirStore), a flaky one (one typed transient
//     fault, kind rotating over unavailable/timeout/partial-write/
//     corrupt-read), and a down one (sticky unavailable from op 1).
//     After every crash: recovery through the full ladder must be
//     output-identical to the baseline with the compensation oracle
//     intact, the archive-gated invariant must hold (nothing pruned
//     locally without a CRC-clean archived copy), and with the archive
//     down nothing may be pruned at all — retention grows, the run
//     itself never stalls.
//
//   - Part B — archiver-op fault sweep: a count-only FaultStore pass
//     sizes the store-op schedule of a clean run, then every op index ×
//     every fault kind is injected in turn. The workload must always
//     complete (archival is asynchronous — no fault may stall an
//     append or checkpoint), the archiver must retry through the fault
//     and drain, and recovery must stay exact.
//
//   - Part C — the archive rung: all local checkpoints plus one sealed
//     tail segment are destroyed after a clean run; recovery must fetch
//     both from the archive (rung "archive-checkpoint", counted in
//     recover.archive_fetches). A corrupt archived newest checkpoint
//     must be CRC-rejected and counted in recover.checkpoint_fallbacks
//     while recovery still lands exactly.
func RunE12() *Report {
	r := &Report{
		ID:      "E12",
		Title:   "archive-tier soak: byte-offset crash at every frame end and torn cut + typed archive faults at every op boundary, gated pruning, archive-rung recovery",
		Columns: []string{"case", "archive", "mode", "points", "archived", "retries", "recovered ok"},
		Pass:    true,
	}
	root, err := os.MkdirTemp("", "archive-soak")
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
	fail := func(err error) *Report {
		r.Pass = false
		if r.Err == nil {
			r.Err = err
		}
		return r
	}

	// Baseline: the travel saga on an in-memory log.
	eb, proc := travelWorkload()
	clean := &wal.MemLog{}
	base, err := eb.CreateInstance(proc, nil, clean)
	if err == nil {
		err = base.Start()
	}
	if err != nil || !base.Finished() {
		return fail(fmt.Errorf("E12 baseline: %v", err))
	}
	baseTrail := fmt.Sprint(trailStrings(base))
	total := clean.Len()

	// runCase executes one crashed-or-clean travel run against the given
	// store: durable segmented WAL on a file system that dies at byte b (0
	// runs to completion), checkpoint every 4 records, archiver attached.
	// It returns the registry the log and the archiver count in; the
	// archiver is drained (bounded) and stopped, the log closed.
	runCase := func(dir string, st wal.Store, b int64, drain time.Duration) (reg *obs.Registry, err error) {
		reg = obs.NewRegistry()
		slog, err := wal.OpenSegmentedLog(dir, wal.SegmentMaxRecords(4), wal.SegmentFsync(),
			wal.SegmentFS(wal.NewFaultFS(wal.FaultCrash, b)), wal.SegmentMetricsRegistry(reg))
		if err != nil {
			return nil, err
		}
		arch := wal.NewArchiver(st, e12ArchiverOpts(reg)...)
		arch.Start()
		defer func() {
			arch.Stop()
			// A dead log only reports its seal; a crash-free one must close.
			if cerr := slog.Close(); b == 0 && err == nil {
				err = cerr
			}
		}()
		ck := engine.NewCheckpointer(slog, engine.CheckpointArchive(arch))
		e2, proc2 := travelWorkload()
		inst, err := e2.CreateInstance(proc2, nil, &checkpointingLog{inner: slog, ck: ck, every: 4})
		if err == nil {
			err = inst.Start()
		}
		if b > 0 && !errors.Is(err, wal.ErrCrash) {
			return nil, fmt.Errorf("crash at byte %d: want crash, got %v", b, err)
		} else if b == 0 && (err != nil || !inst.Finished()) {
			return nil, fmt.Errorf("clean run: %v", err)
		}
		// Post-crash checkpoint pass: folds the segments sealed at crash
		// time and gives gated retention one more chance to run.
		if err := ck.CheckpointNow(); err != nil {
			return nil, err
		}
		if drain > 0 {
			arch.Drain(drain)
		}
		return reg, nil
	}

	// The crash bytes: the frame ends of a crash-free run. Against a dead
	// archive nothing is pruned, so every frame is still there to measure.
	endsDir := caseDir("ends")
	deadInner, err := wal.NewDirStore(caseDir("ends-arch"))
	if err != nil {
		return fail(err)
	}
	reg, err := runCase(endsDir, wal.NewFaultStore(deadInner, wal.StoreUnavailable, 1, wal.StoreSticky()), 0, 0)
	if err != nil {
		return fail(fmt.Errorf("E12 crash-free run: %w", err))
	}
	ends, err := wal.FrameEnds(endsDir)
	if err != nil || len(ends) != total || !batchPathRan(reg) {
		return fail(fmt.Errorf("E12 crash-free run: %d frames (%v), batch path ran: %v", len(ends), err, batchPathRan(reg)))
	}

	// Part A: WAL crash sweep × archive states.
	kinds := []wal.StoreFaultKind{wal.StoreUnavailable, wal.StoreTimeout, wal.StorePartialWrite, wal.StoreCorruptRead}
	states := []struct {
		name  string
		mk    func(inner wal.Store, crashAt int) wal.Store
		drain time.Duration
	}{
		{"healthy", func(inner wal.Store, _ int) wal.Store { return inner }, 2 * time.Second},
		{"flaky", func(inner wal.Store, crashAt int) wal.Store {
			return wal.NewFaultStore(inner, kinds[crashAt%len(kinds)], int64(1+crashAt%3),
				wal.StoreTimeoutDelay(time.Millisecond))
		}, 2 * time.Second},
		// A dead backend: no drain (it would only time out); retention must
		// simply grow.
		{"down", func(inner wal.Store, _ int) wal.Store {
			return wal.NewFaultStore(inner, wal.StoreUnavailable, 1, wal.StoreSticky())
		}, 0},
	}
	for _, state := range states {
		for _, mode := range crashModes {
			var archived, retries int64
			var caseErr error
			for crashAt := 1; crashAt < total && caseErr == nil; crashAt++ {
				dir := caseDir("sweep")
				inner, err := wal.NewDirStore(caseDir("sweep-arch"))
				if err != nil {
					caseErr = err
					break
				}
				st := state.mk(inner, crashAt)
				reg, err := runCase(dir, st, wal.CrashCut(ends, crashAt, mode.torn), state.drain)
				if err != nil {
					caseErr = err
					break
				}
				snap := reg.Snapshot()
				archived += snap.Counters["wal.archive.archived"]
				retries += snap.Counters["wal.archive.retries"]
				if state.name == "down" {
					if snap.Counters["wal.archive.archived"] != 0 {
						caseErr = fmt.Errorf("crashAt %d: down archive verified an upload", crashAt)
						break
					}
					// Gated retention: a dead archive means nothing is pruned.
					segs, err := wal.ListSegments(dir)
					if err != nil {
						caseErr = err
						break
					}
					for i, s := range segs {
						if s.Index != i+1 {
							caseErr = fmt.Errorf("crashAt %d: segment %d pruned with the archive down", crashAt, i+1)
							break
						}
					}
					if caseErr != nil {
						break
					}
				}
				// Nothing locally pruned without a clean archived copy — checked
				// against the inner store so injected read faults don't mask it.
				if err := archiveGateHolds(dir, inner); err != nil {
					caseErr = fmt.Errorf("crashAt %d: %w", crashAt, err)
					break
				}
				if err := e12Recover(dir, st, baseTrail, base); err != nil {
					caseErr = fmt.Errorf("crashAt %d: %w", crashAt, err)
					break
				}
			}
			if state.name == "healthy" && retries != 0 && caseErr == nil {
				caseErr = fmt.Errorf("healthy archive needed %d retries", retries)
			}
			if state.name == "down" && retries == 0 && caseErr == nil {
				caseErr = errors.New("down archive recorded no retries")
			}
			if caseErr != nil {
				r.Pass = false
				if r.Err == nil {
					r.Err = fmt.Errorf("E12 A %s/%s: %w", state.name, mode.name, caseErr)
				}
			}
			r.AddRow("A crash sweep: travel saga", state.name, mode.name,
				fmt.Sprint(total-1), fmt.Sprint(archived), fmt.Sprint(retries), yesNo(caseErr == nil))
		}
	}

	// Part B: archiver-op fault sweep. Size the schedule with a count-only
	// pass, then inject every fault kind at every store-op index.
	inner, err := wal.NewDirStore(caseDir("b-arch"))
	if err != nil {
		return fail(err)
	}
	counter := wal.NewFaultStore(inner, wal.StoreUnavailable, 0)
	if _, err := runCase(caseDir("b"), counter, 0, 2*time.Second); err != nil {
		return fail(fmt.Errorf("E12 B sizing pass: %w", err))
	}
	opCount := counter.Ops()
	if opCount < 4 {
		return fail(fmt.Errorf("E12 B sizing pass saw only %d store ops", opCount))
	}
	for _, kind := range kinds {
		var archived, retries int64
		var caseErr error
		fired := 0
		for k := int64(1); k <= opCount && caseErr == nil; k++ {
			dir := caseDir("b")
			binner, err := wal.NewDirStore(caseDir("b-arch"))
			if err != nil {
				caseErr = err
				break
			}
			st := wal.NewFaultStore(binner, kind, k, wal.StoreTimeoutDelay(time.Millisecond))
			reg, err := runCase(dir, st, 0, 2*time.Second)
			if err != nil {
				caseErr = fmt.Errorf("fault@%d: %w", k, err)
				break
			}
			if st.Fired() {
				fired++
			}
			snap := reg.Snapshot()
			archived += snap.Counters["wal.archive.archived"]
			retries += snap.Counters["wal.archive.retries"]
			if err := archiveGateHolds(dir, binner); err != nil {
				caseErr = fmt.Errorf("fault@%d: %w", k, err)
				break
			}
			if err := e12Recover(dir, binner, baseTrail, base); err != nil {
				caseErr = fmt.Errorf("fault@%d: %w", k, err)
				break
			}
		}
		if caseErr == nil && fired == 0 {
			caseErr = errors.New("no scheduled fault ever fired")
		}
		if caseErr == nil && retries == 0 {
			caseErr = errors.New("faults fired but the archiver never retried")
		}
		if caseErr != nil {
			r.Pass = false
			if r.Err == nil {
				r.Err = fmt.Errorf("E12 B %s: %w", kind, caseErr)
			}
		}
		r.AddRow("B archiver-op faults", kind.String(), "transient fault at each op",
			fmt.Sprint(opCount), fmt.Sprint(archived), fmt.Sprint(retries), yesNo(caseErr == nil))
	}

	// Part C: the archive rung. A clean fully-archived run loses all its
	// local checkpoints and one sealed tail segment; then the newest
	// archived checkpoint is corrupted in place.
	cErr := func() error {
		dir := caseDir("c")
		st, err := wal.NewDirStore(caseDir("c-arch"))
		if err != nil {
			return err
		}
		if _, err := runCase(dir, st, 0, 2*time.Second); err != nil {
			return err
		}
		cps, err := wal.ListCheckpoints(dir)
		if err != nil {
			return err
		}
		if len(cps) == 0 {
			return errors.New("clean run left no checkpoints")
		}
		newest, err := wal.ReadCheckpoint(cps[len(cps)-1].Path)
		if err != nil {
			return err
		}
		for _, ci := range cps {
			if err := os.Remove(ci.Path); err != nil {
				return err
			}
		}
		// Destroy one sealed tail segment (covered blobs are prunable and
		// may already be gone; tail segments past the cover must be
		// re-fetchable too, since they were sealed and archived).
		segs, err := wal.ListSegments(dir)
		if err != nil {
			return err
		}
		removedSeg := false
		for _, s := range segs[:len(segs)-1] { // the last file is the unarchived active segment
			if s.Index > newest.Cover {
				if err := os.Remove(s.Path); err != nil {
					return err
				}
				removedSeg = true
				break
			}
		}
		fetches := obs.Default.Counter("recover.archive_fetches").Value()
		h, err := wal.Ladder{Path: dir, Store: st}.Read()
		if err != nil {
			return err
		}
		if h.Rung != wal.SourceArchiveCheckpoint {
			return fmt.Errorf("rung = %q, want %q", h.Rung, wal.SourceArchiveCheckpoint)
		}
		if cp := h.Checkpoint; cp == nil || cp.Seq != newest.Seq {
			return fmt.Errorf("archive rung returned seq %v, want %d", cp, newest.Seq)
		}
		if err := e12Recover(dir, st, baseTrail, base); err != nil {
			return err
		}
		wantFetches := int64(1)
		if removedSeg {
			wantFetches = 2
		}
		// e12Recover walks the ladder again, so the delta doubles the
		// fetches.
		if d := obs.Default.Counter("recover.archive_fetches").Value() - fetches; d < wantFetches {
			return fmt.Errorf("archive_fetches delta = %d, want >= %d", d, wantFetches)
		}

		// Corrupt the newest archived checkpoint: recovery must CRC-reject
		// it (counted as a fallback) and still land exactly.
		name := fmt.Sprintf("ckpt-%06d.ckpt", newest.Seq)
		blob, err := st.Get(name)
		if err != nil {
			return err
		}
		blob[len(blob)/2] ^= 0x40
		if err := st.Put(name, blob); err != nil {
			return err
		}
		before := fallbackCount()
		if err := e12Recover(dir, st, baseTrail, base); err != nil {
			return fmt.Errorf("after corrupting archived checkpoint: %w", err)
		}
		if fallbackCount() == before {
			return errors.New("corrupt archived checkpoint not counted as a fallback")
		}
		return nil
	}()
	if cErr != nil {
		r.Pass = false
		if r.Err == nil {
			r.Err = fmt.Errorf("E12 C: %w", cErr)
		}
	}
	r.AddRow("C archive rung: local ckpts + tail segment lost, corrupt blob", "healthy", "-", "-", "-", "-", yesNo(cErr == nil))
	return r
}

// b15Chain matches the B9 reference workload length.
const b15Chain = 20

// RunB15 measures the archive tier's overhead on the hot path: the same
// sharded group-committed fleet workload with and without an Archiver
// attached (DirStore backend), and against a down archive (sticky
// unavailable FaultStore). Archival is asynchronous and pruning is
// verification-gated, so records/sec should hold with the archive on or
// down — reported as a ratio over three interleaved trials, best of each
// configuration, but not gated: the runs last ~10 ms and the ratio moves
// by more than 5% between identical runs. The gates are the counts: every
// instance finishes in every configuration, the healthy archive holds
// blobs, the down archive holds none.
func RunB15() *Report {
	r := &Report{
		ID:      "B15",
		Title:   "archival overhead: fleet records/sec with vs. without the archive tier",
		Columns: []string{"config", "trials", "wall (best)", "records/sec", "archived", "vs no-archive"},
		Pass:    true,
	}
	dir, err := os.MkdirTemp("", "wfbench-archive")
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	defer os.RemoveAll(dir)

	const fleetN = 32
	proc := Chain("b15", b15Chain)
	recsPerInst := 2*b15Chain + 2

	type outcome struct {
		wallNs     float64
		recsPerSec float64
		archived   int64
	}
	run := func(trial int, mode string) (outcome, error) {
		root := filepath.Join(dir, fmt.Sprintf("%s-%d", mode, trial))
		cfg := engine.FleetConfig{
			Shards: 2, Dir: root, Parallel: 8, MaxQueue: 16,
			GroupCommit: true, SegmentMaxRecords: 64,
			CheckpointEveryRecords: 64,
		}
		if mode != "no-archive" {
			cfg.ArchiveDir = filepath.Join(root, "archive")
			cfg.ArchiveOpts = func(shard int) []wal.ArchiverOption {
				return []wal.ArchiverOption{
					wal.ArchiveBackoff(time.Millisecond, 8*time.Millisecond),
					wal.ArchiveBreakerCooldown(4 * time.Millisecond),
					wal.ArchiveSeed(int64(shard))}
			}
		}
		if mode == "archive-down" {
			cfg.ArchiveStore = func(shard int) wal.Store {
				return wal.NewFaultStore(&nullStore{}, wal.StoreUnavailable, 1, wal.StoreSticky())
			}
		}
		e := NewEngine()
		if err := e.RegisterProcess(proc); err != nil {
			return outcome{}, err
		}
		f, err := engine.NewFleet(e, cfg)
		if err != nil {
			return outcome{}, err
		}
		res, err := f.Run(proc.Name, fleetN, nil)
		if err == nil && res.Finished != fleetN {
			err = fmt.Errorf("finished %d of %d: %v", res.Finished, fleetN, res.Err)
		}
		if err == nil && mode == "archive" {
			// Flush outside the timed window so the blob count below is the
			// full run's archive output, not a shutdown race.
			for _, sh := range f.Shards() {
				if a := sh.Archiver(); a != nil {
					a.Drain(2 * time.Second)
				}
			}
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return outcome{}, err
		}
		var archived int64
		if cfg.ArchiveDir != "" {
			filepath.Walk(cfg.ArchiveDir, func(_ string, fi os.FileInfo, err error) error {
				if err == nil && fi != nil && !fi.IsDir() {
					archived++
				}
				return nil
			})
		}
		secs := res.Elapsed.Seconds()
		return outcome{
			wallNs:     float64(res.Elapsed.Nanoseconds()),
			recsPerSec: float64(fleetN*recsPerInst) / secs,
			archived:   archived,
		}, nil
	}

	const trials = 3
	best := map[string]outcome{}
	for trial := 0; trial < trials; trial++ {
		for _, mode := range []string{"no-archive", "archive", "archive-down"} {
			out, err := run(trial, mode)
			if err != nil {
				r.Pass = false
				r.Err = fmt.Errorf("B15 %s trial %d: %w", mode, trial, err)
				return r
			}
			if b, ok := best[mode]; !ok || out.recsPerSec > b.recsPerSec {
				best[mode] = out
			}
		}
	}

	base := best["no-archive"].recsPerSec
	for _, mode := range []string{"no-archive", "archive", "archive-down"} {
		out := best[mode]
		rel := "-"
		if mode != "no-archive" && base > 0 {
			rel = fmt.Sprintf("%.2f", out.recsPerSec/base)
		}
		r.AddRow(mode, fmt.Sprint(trials), fmtNs(out.wallNs),
			fmt.Sprintf("%.0f", out.recsPerSec), fmt.Sprint(out.archived), rel)
		r.AddSample(Sample{Name: "B15/" + mode, NsOp: out.wallNs, Iters: 1,
			RecordsPerSec: out.recsPerSec})
		// The gates are counts: a healthy archive must hold blobs, a down one
		// none. The records/sec ratio of a 10 ms run is reported, not gated.
		if (mode == "archive") != (out.archived > 0) {
			r.Pass = false
			if r.Err == nil {
				r.Err = fmt.Errorf("B15: %s run left %d archived blobs", mode, out.archived)
			}
		}
	}
	return r
}

// nullStore discards everything — the inner store behind B15's
// permanently-down FaultStore (never reached, since the fault is sticky
// from op 1).
type nullStore struct{}

func (nullStore) Put(string, []byte) error   { return nil }
func (nullStore) Get(string) ([]byte, error) { return nil, wal.ErrStoreMiss }
func (nullStore) List() ([]string, error)    { return nil, nil }
func (nullStore) Delete(string) error        { return nil }
