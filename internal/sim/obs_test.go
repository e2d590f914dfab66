package sim

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/fmtm"
	"repro/internal/obs"
	"repro/internal/rm"
	"repro/internal/wal"
)

// TestSagaRunMetrics pins the engine metrics of a known saga run: the
// travel saga with book_car aborting, i.e. the paper's §4.1 compensation
// scenario. The observable history is book_flight book_hotel book_car(ab)
// cancel_hotel cancel_flight — five program executions, four commits, one
// abort — plus the translator's copy_input runtime program, and the WAL
// append count must equal the log length.
func TestSagaRunMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	spec := travelSaga()
	e := engine.New(engine.WithMetrics(reg))
	if err := fmtm.RegisterRuntime(e); err != nil {
		t.Fatal(err)
	}
	inj := rm.NewInjector()
	inj.AbortAlways("book_car")
	rec := &rm.Recorder{}
	if err := fmtm.RegisterSaga(e, spec, fmtm.PureSagaBinding(spec), inj, rec); err != nil {
		t.Fatal(err)
	}
	p, err := fmtm.TranslateSaga(spec, fmtm.SagaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	log := &wal.MemLog{}
	inst, err := e.CreateInstance(spec.Name, nil, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if !inst.Finished() {
		t.Fatal("instance did not finish")
	}

	runs := inst.ProgramRuns()
	var aborted, committed int64
	for _, r := range runs {
		if r.RC == 0 {
			committed++
		} else {
			aborted++
		}
	}
	c := func(name string) int64 { return reg.Counter(name).Value() }
	if got := c("engine.program.invocations"); got != int64(len(runs)) {
		t.Errorf("invocations = %d, want %d (the completed program runs)", got, len(runs))
	}
	if got := c("engine.program.committed"); got != committed {
		t.Errorf("committed = %d, want %d", got, committed)
	}
	if got := c("engine.program.aborted"); got != aborted {
		t.Errorf("aborted = %d, want %d", got, aborted)
	}
	if aborted != 1 {
		t.Errorf("scenario drifted: aborted = %d, want exactly 1 (book_car)", aborted)
	}
	// The Figure 2 construction discards the unused branch via dead path
	// elimination, so a compensating run must eliminate at least the
	// skipped forward steps.
	if got := c("engine.deadpath.eliminations"); got == 0 {
		t.Error("deadpath.eliminations = 0, want > 0 on the compensation path")
	}
	// No transient failures are scripted, so the retry policy the
	// translator attaches must never fire.
	if got := c("engine.program.retries"); got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}
	if got := c("engine.wal.appends"); got != int64(log.Len()) {
		t.Errorf("wal.appends = %d, want %d (the log length)", got, log.Len())
	}
	if got := c("engine.instances.finished"); got != 1 {
		t.Errorf("instances.finished = %d, want 1", got)
	}
	if got := reg.Gauge("engine.queue.depth").Value(); got != 0 {
		t.Errorf("queue depth after completion = %d, want 0", got)
	}
}

// TestFileLogMetrics checks the WAL-side instrumentation: append and byte
// counters and the fsync latency histogram, against a fresh registry.
func TestFileLogMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	path := t.TempDir() + "/m.wal"
	flog, err := wal.OpenFileLog(path, wal.WithFsync(), wal.WithMetricsRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := flog.Append(wal.Record{Type: wal.RecCreated, Instance: "i", Process: "p"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := flog.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("wal.file.appends").Value(); got != 3 {
		t.Errorf("wal.file.appends = %d, want 3", got)
	}
	if got := reg.Counter("wal.file.bytes").Value(); got <= 0 {
		t.Errorf("wal.file.bytes = %d, want > 0", got)
	}
	if h := reg.Snapshot().Histograms["wal.fsync_ns"]; h.Count != 3 || h.SumNs <= 0 {
		t.Errorf("wal.fsync_ns count=%d sum=%d, want 3 timed fsyncs", h.Count, h.SumNs)
	}
}
