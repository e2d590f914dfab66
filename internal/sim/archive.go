package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/wal"
)

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
