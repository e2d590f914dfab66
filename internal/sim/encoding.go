package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/expr"
	"repro/internal/wal"
)

// b13Record is the representative hot-path record B13 measures: an
// activity completion with a small output container, the shape the engine
// appends once per navigation step.
func b13Record() wal.Record {
	return wal.Record{
		Type: wal.RecFinishedActivity, Instance: "inst-000042", Path: "Book/Flight", Iter: 1,
		Values: wal.ValuesOf(map[string]expr.Value{
			"RC":    expr.Int(0),
			"PNR":   expr.String_("X4QZ81"),
			"price": expr.Float(412.50),
			"held":  expr.Bool(true),
		}),
	}
}

// RunB13 measures the binary WAL record framing against the text framing:
// raw encode, raw decode (full-log read), and end-to-end FileLog append
// without fsync — the navigation hot path when group commit owns
// durability. Gates: binary encode and decode must be at least 2x the text
// throughput, binary append must not regress records/sec, and the
// idle-bus binary append path must not allocate.
func RunB13() *Report {
	r := &Report{
		ID:      "B13",
		Title:   "WAL record encoding: binary vs text framing",
		Columns: []string{"operation", "text ns/op", "binary ns/op", "speedup x", "gate"},
		Pass:    true,
	}
	rec := b13Record()
	gate := func(name string, ok bool) string {
		if !ok {
			r.Pass = false
			return fmt.Sprintf("FAIL %s", name)
		}
		return "ok"
	}

	// Raw encode: one framed record into a reused buffer, exactly what
	// every log backend does per append.
	var enc []byte
	encTm := make(map[wal.Format]Timing)
	for _, f := range []wal.Format{wal.FormatText, wal.FormatBinary} {
		f := f
		encTm[f] = measureStats(func() {
			var err error
			enc, err = wal.EncodeRecord(enc[:0], rec, f)
			if err != nil {
				panic(err)
			}
		})
	}
	encSpeed := encTm[wal.FormatText].MeanNs / encTm[wal.FormatBinary].MeanNs
	r.AddRow("encode record", fmtNs(encTm[wal.FormatText].MeanNs), fmtNs(encTm[wal.FormatBinary].MeanNs),
		fmt.Sprintf("%.1f", encSpeed), gate(">=2x encode", encSpeed >= 2))
	r.AddSample(sampleFrom("B13/encode/text", encTm[wal.FormatText], 0))
	r.AddSample(sampleFrom("B13/encode/binary", encTm[wal.FormatBinary], 0))

	// Raw decode: strict read of an in-memory 1000-record log, per-record
	// cost — the recovery replay path.
	const decN = 1000
	logs := make(map[wal.Format][]byte)
	for _, f := range []wal.Format{wal.FormatText, wal.FormatBinary} {
		var data []byte
		if f == wal.FormatBinary {
			data = append(data, wal.FileHeader(f)...)
		}
		for i := 0; i < decN; i++ {
			var err error
			data, err = wal.EncodeRecord(data, rec, f)
			if err != nil {
				r.Pass = false
				r.Err = err
				return r
			}
		}
		logs[f] = data
	}
	decTm := make(map[wal.Format]Timing)
	for _, f := range []wal.Format{wal.FormatText, wal.FormatBinary} {
		data := logs[f]
		decTm[f] = measureStats(func() {
			recs, err := wal.ReadAll(bytes.NewReader(data))
			if err != nil || len(recs) != decN {
				panic(fmt.Sprintf("B13 decode: %d records, %v", len(recs), err))
			}
		})
	}
	decText := decTm[wal.FormatText].MeanNs / decN
	decBin := decTm[wal.FormatBinary].MeanNs / decN
	decSpeed := decText / decBin
	r.AddRow(fmt.Sprintf("decode log (%d recs, per rec)", decN), fmtNs(decText), fmtNs(decBin),
		fmt.Sprintf("%.1f", decSpeed), gate(">=2x decode", decSpeed >= 2))
	r.AddSample(Sample{Name: "B13/decode/text", NsOp: decText, Iters: decTm[wal.FormatText].Iters * decN,
		RecordsPerSec: 1e9 / decText})
	r.AddSample(Sample{Name: "B13/decode/binary", NsOp: decBin, Iters: decTm[wal.FormatBinary].Iters * decN,
		RecordsPerSec: 1e9 / decBin})

	// End-to-end append, no per-record fsync (the group-commit regime):
	// encode + buffered file write + metrics. The binary path must not
	// regress text throughput (5% noise allowance on the batch minimum).
	dir, err := os.MkdirTemp("", "wfbench-b13-")
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	defer os.RemoveAll(dir)
	appTm := make(map[wal.Format]Timing)
	for _, f := range []wal.Format{wal.FormatText, wal.FormatBinary} {
		l, err := wal.OpenFileLog(filepath.Join(dir, "append-"+f.String()+".wal"), wal.WithFormat(f))
		if err != nil {
			r.Pass = false
			r.Err = err
			return r
		}
		appTm[f] = measureStats(func() {
			if err := l.Append(rec); err != nil {
				panic(err)
			}
		})
		if err := l.Close(); err != nil {
			r.Pass = false
			r.Err = err
			return r
		}
	}
	appSpeed := appTm[wal.FormatText].MinNs / appTm[wal.FormatBinary].MinNs
	r.AddRow("file append (no fsync)", fmtNs(appTm[wal.FormatText].MeanNs), fmtNs(appTm[wal.FormatBinary].MeanNs),
		fmt.Sprintf("%.1f", appSpeed), gate("no append regression", appSpeed >= 0.95))
	r.AddSample(sampleFrom("B13/append/text", appTm[wal.FormatText], 1e9/appTm[wal.FormatText].MeanNs))
	r.AddSample(sampleFrom("B13/append/binary", appTm[wal.FormatBinary], 1e9/appTm[wal.FormatBinary].MeanNs))

	// Idle-bus allocation gate: the binary append path must be zero
	// allocs/op once its encode scratch is warm.
	l, err := wal.OpenFileLog(filepath.Join(dir, "allocs.wal"), wal.WithFormat(wal.FormatBinary))
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	for i := 0; i < 64; i++ {
		if err := l.Append(rec); err != nil {
			panic(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := l.Append(rec); err != nil {
			panic(err)
		}
	})
	if err := l.Close(); err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	r.AddRow("append allocs/op (idle bus)", "-", fmt.Sprintf("%.1f", allocs), "-",
		gate("0 allocs/op", allocs == 0))
	r.AddSample(Sample{Name: "B13/append/binary-allocs", NsOp: allocs})
	return r
}
