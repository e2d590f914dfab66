package sim

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fmtm"
	"repro/internal/rm"
	"repro/internal/wal"
)

// dropLog acknowledges its second multi-record batch without writing it
// (a probe append is one record: it goes through).
type dropLog struct {
	inner wal.Log
	n     int
}

func (l *dropLog) Append(rec wal.Record) error { return l.AppendBatch([]wal.Record{rec}) }

func (l *dropLog) AppendBatch(recs []wal.Record) error {
	if len(recs) > 1 {
		if l.n++; l.n == 2 {
			return nil
		}
	}
	return wal.AppendAll(l.inner, recs)
}

// hotelAborts is the travel engine with book_hotel aborting instead of
// book_car: one program swapped.
func hotelAborts() *engine.Engine {
	spec := TravelSaga()
	e := engine.New()
	inj := rm.NewInjector()
	inj.AbortAlways("book_hotel")
	p, err := fmtm.TranslateSaga(spec, fmtm.SagaOptions{})
	if err == nil {
		err = fmtm.RegisterRuntime(e)
	}
	if err == nil {
		err = fmtm.RegisterSaga(e, spec, fmtm.PureSagaBinding(spec), inj, &rm.Recorder{})
	}
	if err == nil {
		err = e.RegisterProcess(p)
	}
	if err != nil {
		panic(err)
	}
	return e
}

// TestSweepCatchesLostAck checks the driver's oracles bite: the same row
// passes as it is, fails naming its cut when a wrapper beneath the ack
// tracker acknowledges a batch it never writes, and fails on the
// output/trail oracle when recovery runs a different program.
func TestSweepCatchesLostAck(t *testing.T) {
	row := func() *sweepRow { return &sweepRow{work: travelRun, stack: stack{kind: fileLog}} }
	if rep := sweep("E0", "sweep", row()); !rep.Pass {
		t.Fatalf("the intact row fails:\n%s", rep)
	}
	shape := regexp.MustCompile(`^E0 travel saga abort@book_car on file text/clean crash k=\d+ byte=\d+: ([^:]+): `)

	lossy := row()
	lossy.wrap = func(l wal.Log) wal.Log { return &dropLog{inner: l} }
	rep := sweep("E0", "sweep", lossy)
	if rep.Pass || rep.Err == nil {
		t.Fatalf("a lost acknowledged append passes:\n%s", rep)
	}
	if m := shape.FindStringSubmatch(rep.Err.Error()); m == nil || m[1] != "no acknowledged append lost" {
		t.Fatalf("failure %q does not name its cut and the lost ack", rep.Err)
	}
	if lost := rep.Rows[0][8]; lost == "0" {
		t.Fatalf("acks lost = %s, want >= 1", lost)
	}

	swapped := row()
	swapped.recoverWith = hotelAborts
	rep = sweep("E0", "sweep", swapped)
	if m := shape.FindStringSubmatch(errString(rep.Err)); rep.Pass || m == nil || m[1] != "recovered = crash-free run" {
		t.Fatalf("a swapped program passes or fails elsewhere: %v", rep.Err)
	}
	if !strings.Contains(rep.Rows[0][11], "NO") {
		t.Fatalf("row verdict %q", rep.Rows[0][11])
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
