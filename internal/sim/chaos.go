package sim

import (
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

// e10Fleet is the E10 fleet size: enough instances that faults land
// before, between and after instance boundaries, small enough that the
// full op-boundary sweep stays fast.
const e10Fleet = 2

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

// e10Backend opens one of the durable backends under a fault filesystem
// and exposes the handles the sweep needs.
type e10Backend struct {
	name string
	// open returns the group-commit front, a close function for the
	// underlying log (tolerant of sealed-log errors), and the path of the
	// log — file or segment directory — for the recovery ladder to walk.
	open func(dir string, fs wal.FS) (*wal.GroupCommitLog, func() error, string, error)
}

func e10Backends() []e10Backend {
	return []e10Backend{
		{
			name: "group commit / file log",
			open: func(dir string, fs wal.FS) (*wal.GroupCommitLog, func() error, string, error) {
				path := filepath.Join(dir, "chaos.wal")
				flog, err := wal.OpenFileLog(path, wal.WithFS(fs), wal.WithMetricsRegistry(obs.NewRegistry()))
				if err != nil {
					return nil, nil, "", err
				}
				g := wal.NewGroupCommitLog(flog, wal.GroupWithMetricsRegistry(obs.NewRegistry()))
				return g, g.Close, path, nil
			},
		},
		{
			name: "group commit / segmented",
			open: func(dir string, fs wal.FS) (*wal.GroupCommitLog, func() error, string, error) {
				slog, err := wal.OpenSegmentedLog(dir,
					wal.SegmentMaxRecords(8), wal.SegmentFS(fs),
					wal.SegmentMetricsRegistry(obs.NewRegistry()))
				if err != nil {
					return nil, nil, "", err
				}
				g := wal.NewGroupCommitSegmented(slog, wal.GroupWithMetricsRegistry(obs.NewRegistry()))
				return g, g.Close, dir, nil
			},
		},
		{
			name: "group commit / segmented binary",
			open: func(dir string, fs wal.FS) (*wal.GroupCommitLog, func() error, string, error) {
				slog, err := wal.OpenSegmentedLog(dir,
					wal.SegmentMaxRecords(8), wal.SegmentFS(fs),
					wal.SegmentFormat(wal.FormatBinary),
					wal.SegmentMetricsRegistry(obs.NewRegistry()))
				if err != nil {
					return nil, nil, "", err
				}
				g := wal.NewGroupCommitSegmented(slog, wal.GroupWithMetricsRegistry(obs.NewRegistry()))
				return g, g.Close, dir, nil
			},
		},
	}
}

// opTraceFS records the type (write vs sync) of every FS operation the
// clean run performs, so the sweep can schedule each fault kind only at
// boundaries where a matching operation still lies ahead (an EIO
// scheduled after the last write of the run would never fire).
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
	wantSync := kind == wal.FaultFsync
	for i := len(fs.syncs) - 1; i >= 0; i-- {
		if fs.syncs[i] == wantSync {
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

// e10Run drives one travel-saga fleet over log, with a watchdog bounding
// the drain: a scheduler that deadlocks after a storage fault would hang
// the soak forever, so a run that does not come back within the deadline
// is itself a failure.
func e10Run(log wal.Log) (*engine.FleetResult, error) {
	e, proc := travelWorkload()
	type outcome struct {
		res *engine.FleetResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := e.RunFleet(engine.FleetOptions{
			Process: proc, N: e10Fleet, Parallel: 1, Log: log,
		})
		ch <- outcome{res, err}
	}()
	select {
	case out := <-ch:
		return out.res, out.err
	case <-time.After(30 * time.Second):
		return nil, errors.New("fleet did not drain within 30s after fault (deadlock or leaked worker)")
	}
}

// RunE10 is the storage-fault chaos soak — the deterministic harness for
// the PR's fault domain. For each durable backend (group-committed
// FileLog, SegmentedLog, and SegmentedLog with binary-framed records) it
// first runs the travel-saga fleet over a
// count-only FaultFS to size the schedule, then replays the identical
// workload once per (fault kind x FS op boundary): EIO and ENOSPC write
// failures and post-write fsync failures, injected at every Write/Sync
// the clean run performs. Every iteration must uphold the hardening
// contract:
//
//   - the fleet drains in bounded time (no deadlock, no leaked worker);
//   - failures are typed: the first error wraps the injected sentinel or
//     ErrLogFailed, and once the log is sealed a probe append returns
//     ErrLogFailed — never a silent ack;
//   - zero acked-append loss: every append acknowledged before the fault
//     is present in the repaired on-disk log;
//   - recovery from the repaired records completes every surviving
//     instance with the baseline output, and the compensation-ordering
//     oracle holds — the recovered history still satisfies the §4.1 saga
//     guarantee (forward commits then reverse-order compensations).
//
// The soak ends with a goroutine-leak check across the whole sweep.
func RunE10() *Report {
	r := &Report{
		ID:      "E10",
		Title:   "storage-fault chaos soak: EIO/ENOSPC/fsync-fail at every FS op boundary, typed seal, no acked loss",
		Columns: []string{"backend", "fault", "op boundaries", "faulted runs", "sealed probes", "acks lost", "recovered ok"},
		Pass:    true,
	}
	goroutinesBefore := runtime.NumGoroutine()

	root, err := os.MkdirTemp("", "wal-chaos")
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	defer os.RemoveAll(root)

	// Crash-free baseline: output container plus a sanity check that the
	// trail-derived history satisfies the guarantee (the oracle must not
	// be vacuous before we trust it on faulted runs).
	spec := TravelSaga()
	baseE, baseProc := travelWorkload()
	baseRes, err := baseE.RunFleet(engine.FleetOptions{Process: baseProc, N: 1})
	if err != nil || baseRes.Finished != 1 {
		r.Pass = false
		r.Err = fmt.Errorf("E10 baseline: %v (%v)", err, baseRes)
		return r
	}
	base := baseRes.Instances[0]
	if err := saga.CheckGuarantee(spec, sagaEventsFromRuns(spec, base)); err != nil {
		r.Pass = false
		r.Err = fmt.Errorf("E10 oracle self-check: %w", err)
		return r
	}

	iter := 0
	for _, backend := range e10Backends() {
		// Count-only pass: trace the FS op sequence of the clean fleet,
		// including the final flush/sync at Close. The sweep schedules a
		// fault at every boundary where the kind can still fire.
		trace := &opTraceFS{inner: wal.OSFS{}}
		dir := filepath.Join(root, fmt.Sprintf("count-%d", iter))
		os.MkdirAll(dir, 0o755)
		g, closeLog, _, err := backend.open(dir, trace)
		if err == nil {
			var res *engine.FleetResult
			res, err = e10Run(g)
			if err == nil && res.Finished != e10Fleet {
				err = fmt.Errorf("clean run finished %d of %d", res.Finished, e10Fleet)
			}
			if cerr := closeLog(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			r.Pass = false
			r.Err = fmt.Errorf("E10 %s count pass: %w", backend.name, err)
			return r
		}
		for _, kind := range []wal.FaultKind{wal.FaultEIO, wal.FaultENOSPC, wal.FaultFsync} {
			boundaries := trace.lastMatch(kind)
			if boundaries == 0 {
				r.Pass = false
				r.Err = fmt.Errorf("E10 %s: clean run performed no %v-matching FS op", backend.name, kind)
				return r
			}
			faulted := 0
			sealedProbes := 0
			acksLost := 0
			okAll := true
			var firstErr error
			for failAt := int64(1); failAt <= boundaries && okAll; failAt++ {
				iter++
				dir := filepath.Join(root, fmt.Sprintf("case-%d", iter))
				os.MkdirAll(dir, 0o755)
				fail := func(format string, args ...any) {
					okAll = false
					if firstErr == nil {
						firstErr = fmt.Errorf("%s/%s failAt=%d: %s",
							backend.name, kind, failAt, fmt.Sprintf(format, args...))
					}
				}

				ffs := wal.NewFaultFS(kind, failAt)
				g, closeLog, logPath, err := backend.open(dir, ffs)
				if err != nil {
					fail("open: %v", err)
					break
				}
				track := &ackTrackingLog{inner: g}
				res, err := e10Run(track)
				if err != nil {
					fail("fleet: %v", err)
					break
				}
				if res.Failed > 0 {
					// Typed failure: the sentinel of the injected fault, or
					// the sealed-log error for instances after the first.
					var sentinel error
					switch kind {
					case wal.FaultEIO:
						sentinel = wal.ErrDiskIO
					case wal.FaultENOSPC:
						sentinel = wal.ErrDiskFull
					default:
						sentinel = wal.ErrFsyncFailed
					}
					if !errors.Is(res.Err, sentinel) && !errors.Is(res.Err, wal.ErrLogFailed) {
						fail("untyped failure: %v", res.Err)
					}
					// Sealed-log probe: the log must refuse to ack anything
					// after the fault (fsync-gate — a transient fault must
					// not let later appends ack over a possible hole).
					if err := track.Append(wal.Record{Instance: "probe", Type: "probe"}); errors.Is(err, wal.ErrLogFailed) {
						sealedProbes++
					} else {
						fail("post-fault append = %v, want ErrLogFailed", err)
					}
				}
				closeErr := closeLog()
				// The schedule came from the clean run, whose FS op prefix
				// the faulted run reproduces exactly, so every boundary must
				// fire — during the fleet run or, for the final flush/sync
				// ops, at Close (which must then surface the fault; acked
				// records were already durable from their own batch syncs).
				if !ffs.Fired() {
					fail("fault never fired")
					continue
				}
				faulted++
				if res.Failed == 0 && closeErr == nil {
					fail("fault fired but neither the fleet nor Close reported it")
				}

				// Durability oracle: every acknowledged append survives in
				// the repaired log.
				e2, _ := travelWorkload()
				insts, h, err := engine.RecoverLadder(e2, wal.Ladder{Path: logPath, Full: true}, nil)
				if h == nil {
					fail("repair: %v", err)
					continue
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
						fail("acked append lost: %s", recKey(rec))
					}
				}

				// Recovery + compensation oracle: the surviving instances
				// complete with the baseline output, and their histories
				// still satisfy the saga guarantee.
				if err != nil {
					fail("recover: %v", err)
					continue
				}
				for _, inst := range insts {
					if !inst.Finished() {
						fail("recovered instance %s not finished: %v", inst.ID(), inst.Err())
						continue
					}
					if !inst.Output().Equal(base.Output()) {
						fail("recovered instance %s output diverges from baseline", inst.ID())
					}
					if err := saga.CheckGuarantee(spec, sagaEventsFromRuns(spec, inst)); err != nil {
						fail("compensation oracle: %v", err)
					}
				}
			}
			if !okAll {
				r.Pass = false
				if r.Err == nil {
					r.Err = fmt.Errorf("E10 %v", firstErr)
				}
			}
			verdict := "yes"
			if !okAll {
				verdict = "NO"
			}
			r.AddRow(backend.name, kind.String(), fmt.Sprint(boundaries),
				fmt.Sprint(faulted), fmt.Sprint(sealedProbes), fmt.Sprint(acksLost), verdict)
		}
	}

	// Leak check across the whole sweep: transient worker goroutines must
	// have exited once every fleet drained.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore+2 {
		r.Pass = false
		r.Err = fmt.Errorf("E10: %d goroutines before sweep, %d after — leak", goroutinesBefore, n)
	}
	return r
}
