package sim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/atm/saga"
	"repro/internal/engine"
	"repro/internal/fmtm"
	"repro/internal/obs"
	"repro/internal/rm"
	"repro/internal/wal"
)

// TravelSaga is the running example of the paper's §4.1: book a flight, a
// hotel and a car, with a cancellation compensating each booking.
func TravelSaga() *saga.Spec {
	return &saga.Spec{
		Name: "travel",
		Steps: []saga.Step{
			{Name: "book_flight", Compensation: "cancel_flight"},
			{Name: "book_hotel", Compensation: "cancel_hotel"},
			{Name: "book_car", Compensation: "cancel_car"},
		},
	}
}

// travelWorkload builds an engine running the travel saga with book_car
// aborting, so every execution takes the compensation path. Shared by the
// E7 and E9 soaks.
func travelWorkload() (*engine.Engine, string) {
	return travelWorkloadOpts()
}

// travelWorkloadOpts is travelWorkload with engine options — the E13
// queryable-history soak threads a fresh metrics registry, bus and trail
// observer through here.
func travelWorkloadOpts(opts ...engine.Option) (*engine.Engine, string) {
	spec := TravelSaga()
	e := engine.New(opts...)
	if err := fmtm.RegisterRuntime(e); err != nil {
		panic(err)
	}
	inj := rm.NewInjector()
	inj.AbortAlways("book_car") // forces the compensation path
	if err := fmtm.RegisterSaga(e, spec, fmtm.PureSagaBinding(spec), inj, &rm.Recorder{}); err != nil {
		panic(err)
	}
	p, err := fmtm.TranslateSaga(spec, fmtm.SagaOptions{})
	if err != nil {
		panic(err)
	}
	if err := e.RegisterProcess(p); err != nil {
		panic(err)
	}
	return e, spec.Name
}

// flexibleWorkload builds an engine running the Figure 3 flexible
// transaction with T6 aborting (C5 compensates, alternate path via T7).
// Shared by the E7 and E9 soaks.
func flexibleWorkload() (*engine.Engine, string) {
	return flexibleWorkloadOpts()
}

// flexibleWorkloadOpts is flexibleWorkload with engine options (E13).
func flexibleWorkloadOpts(opts ...engine.Option) (*engine.Engine, string) {
	spec := Fig3Flexible()
	e := engine.New(opts...)
	if err := fmtm.RegisterRuntime(e); err != nil {
		panic(err)
	}
	inj := rm.NewInjector()
	inj.AbortAlways("T6")
	if err := fmtm.RegisterFlexible(e, spec, fmtm.PureFlexibleBinding(spec), inj, &rm.Recorder{}); err != nil {
		panic(err)
	}
	p, err := fmtm.TranslateFlexible(spec)
	if err != nil {
		panic(err)
	}
	if err := e.RegisterProcess(p); err != nil {
		panic(err)
	}
	return e, spec.Name
}

// RunE7 is the crash-point soak for the file-backed WAL: run the travel
// saga and the Figure 3 flexible transaction to completion over a real
// FileLog — in both the text and the binary record framing — then re-run
// each workload over a file system that kills the server at a byte
// (wal.FaultCrash): at every frame end of the crash-free run, a clean crash
// (the next record never reaches the file), and inside every frame, a
// short write (a torn partial frame lands on disk). The same run writes the
// same bytes, so byte ends[k-1] is record boundary k. The log is the
// durable stack itself (fsync on), so every write-ahead barrier reaches the
// file system as one AppendBatch and the crash surfaces in the barrier that
// hit it. Each crashed log is repaired with RepairFile (truncate-and-
// resume) and recovered; the soak passes only if every recovery reproduces
// the baseline's audit trail and a bit-identical final output container.
func RunE7() *Report {
	r := &Report{
		ID:      "E7",
		Title:   "WAL soak: byte-offset crash at every frame end and torn cut of a file log, repair, identical outcome",
		Columns: []string{"workload", "format", "mode", "log records", "crash points", "torn tails repaired", "recovered ok"},
		Pass:    true,
	}
	type workload struct {
		name string
		mk   func() (*engine.Engine, string)
	}

	dir, err := os.MkdirTemp("", "wal-soak")
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	defer os.RemoveAll(dir)

	for _, w := range []workload{{"travel saga abort@book_car", travelWorkload}, {"flexible Fig.3 abort@T6", flexibleWorkload}} {
		for _, format := range []wal.Format{wal.FormatText, wal.FormatBinary} {
			r.addE7Rows(dir, w.name, format, w.mk)
		}
	}
	return r
}

// addE7Rows runs one E7 workload in one record format: baseline, then the
// full crash-point sweep in both crash modes.
func (r *Report) addE7Rows(dir, name string, format wal.Format, mk func() (*engine.Engine, string)) {
	path := filepath.Join(dir, fmt.Sprintf("soak-%s.wal", format))

	// Baseline run over a durable (fsync-on-append) file log.
	flog, err := wal.OpenFileLog(path, wal.WithFsync(), wal.WithFormat(format))
	if err != nil {
		r.Pass = false
		r.Err = err
		return
	}
	e, proc := mk()
	base, err := e.CreateInstance(proc, nil, flog)
	if err == nil {
		err = base.Start()
	}
	if cerr := flog.Close(); err == nil {
		err = cerr
	}
	if err != nil || !base.Finished() {
		r.Pass = false
		r.Err = fmt.Errorf("E7 %s/%s baseline: %v", name, format, err)
		return
	}
	baseTrail := fmt.Sprint(trailStrings(base))
	records, err := wal.ReadFile(path) // strict read: every CRC must verify
	if err != nil {
		r.Pass = false
		r.Err = fmt.Errorf("E7 %s/%s baseline read-back: %v", name, format, err)
		return
	}
	total := len(records)
	ends, err := wal.FrameEnds(path)
	if err != nil || len(ends) != total {
		r.fail(fmt.Errorf("E7 %s/%s frame ends: %d of %d, %v", name, format, len(ends), total, err))
		return
	}

	reg := obs.NewRegistry() // the sweep's file logs: appends and fsyncs
	for _, mode := range crashModes {
		okAll := true
		repaired := 0
		for crashAt := 1; crashAt < total; crashAt++ {
			b := wal.CrashCut(ends, crashAt, mode.torn)
			flog, err := wal.OpenFileLog(path, wal.WithFsync(), wal.WithFormat(format),
				wal.WithFS(wal.NewFaultFS(wal.FaultCrash, b)), wal.WithMetricsRegistry(reg))
			if err != nil {
				okAll = false
				break
			}
			e2, proc2 := mk()
			inst, err := e2.CreateInstance(proc2, nil, flog)
			if err != nil {
				okAll = false
				break
			}
			err = inst.Start()
			flog.Close() // the dead log reports its seal; nothing more is written
			if fi, serr := os.Stat(path); !errors.Is(err, wal.ErrCrash) || serr != nil || fi.Size() != b {
				okAll = false // the crash leaves exactly the bytes below the cut
				break
			}
			recs, dropped, err := wal.RepairFile(path)
			if err != nil || len(recs) != crashAt || mode.torn != (dropped > 0) {
				okAll = false // k records kept; a torn tail detected, a clean cut leaves none
				break
			}
			if dropped > 0 {
				repaired++
				// The repaired file must now read back clean.
				if again, err := wal.ReadFile(path); err != nil || len(again) != crashAt {
					okAll = false
					break
				}
			}
			e3, _ := mk()
			rec, err := engine.Recover(e3, recs, nil)
			if err != nil || !rec.Finished() || fmt.Sprint(trailStrings(rec)) != baseTrail || !rec.Output().Equal(base.Output()) {
				okAll = false
				break
			}
		}
		if !okAll {
			r.Pass = false
		}
		r.AddRow(name, format.String(), mode.name, fmt.Sprint(total), fmt.Sprint(total-1), fmt.Sprint(repaired), yesNo(okAll))
	}
	if !batchPathRan(reg) {
		r.fail(fmt.Errorf("E7 %s/%s: the sweep never drove FileLog.AppendBatch with a multi-record barrier", name, format))
	}
}

// batchPathRan reports whether the file logs counted in reg made records
// durable in batches: some fsyncs, fewer than records — a write-ahead
// barrier's records went down in one AppendBatch, not one Append each.
func batchPathRan(reg *obs.Registry) bool {
	fsyncs := reg.Histogram("wal.fsync_ns").Count()
	return fsyncs > 0 && fsyncs < reg.Counter("wal.file.appends").Value()
}
