package wal

import (
	"bytes"
	"errors"
	"path/filepath"

	"strings"
	"testing"
	"testing/quick"

	"repro/internal/expr"
)

func sampleRecords() []Record {
	return []Record{
		{Type: RecCreated, Instance: "i1", Process: "Demo",
			Values: ValuesOf(map[string]expr.Value{"id": expr.Int(7), "RC": expr.Int(0)})},
		{Type: RecStartedActivity, Instance: "i1", Path: "A", Iter: 0},
		{Type: RecFinishedActivity, Instance: "i1", Path: "A", Iter: 0,
			Values: ValuesOf(map[string]expr.Value{
				"RC": expr.Int(0), "name": expr.String_("x"),
				"score": expr.Float(1.25), "ok": expr.Bool(true),
			})},
		{Type: RecFinishedActivity, Instance: "i1", Path: "B/step1", Iter: 2,
			Values: ValuesOf(map[string]expr.Value{"RC": expr.Int(-9223372036854775808)})},
		{Type: RecDone, Instance: "i1",
			Values: ValuesOf(map[string]expr.Value{"RC": expr.Int(0)})},
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		b, err := Marshal(rec)
		if err != nil {
			t.Fatalf("Marshal(%+v): %v", rec, err)
		}
		got, err := unmarshal(b)
		if err != nil {
			t.Fatalf("unmarshal(%s): %v", b, err)
		}
		if !recordsEqual(rec, got) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", rec, got)
		}
	}
}

func recordsEqual(a, b Record) bool {
	if a.Type != b.Type || a.Instance != b.Instance || a.Process != b.Process ||
		a.Path != b.Path || a.Iter != b.Iter || a.Values.Len() != b.Values.Len() {
		return false
	}
	for i, k := range a.Values.Keys {
		if bv, ok := b.Values.Get(k); !ok || !a.Values.Vals[i].Equal(bv) {
			return false
		}
	}
	return true
}

func TestMarshalRejectsNull(t *testing.T) {
	_, err := Marshal(Record{Type: RecDone, Values: ValuesOf(map[string]expr.Value{"x": expr.Null})})
	if err == nil {
		t.Fatal("null value marshaled")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := unmarshal([]byte("{not json")); err == nil {
		t.Error("bad json accepted")
	}
	if _, err := unmarshal([]byte(`{"t":"done","inst":"i","vals":{"x":{"k":"Z"}}}`)); err == nil {
		t.Error("unknown value kind accepted")
	}
	if _, err := unmarshal([]byte(`{"t":"done","inst":"i","vals":{"x":{"k":"I","i":"abc"}}}`)); err == nil {
		t.Error("bad integer accepted")
	}
}

func TestMemLog(t *testing.T) {
	l := &MemLog{}
	for _, rec := range sampleRecords() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d", l.Len())
	}
	recs := l.Records()
	if len(recs) != 5 || !recordsEqual(recs[0], sampleRecords()[0]) {
		t.Fatal("Records mismatch")
	}
	// Returned slice is a copy.
	recs[0].Values.Vals[1] = expr.Int(999) // "id", after "RC"
	if v, _ := l.Records()[0].Values.Get("id"); v.AsInt() == 999 {
		t.Fatal("Records aliases internal state")
	}
}

func TestMemLogCrashInjection(t *testing.T) {
	l := &MemLog{CrashAfter: 2}
	recs := sampleRecords()
	if err := l.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recs[1]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recs[2]); !errors.Is(err, ErrCrash) {
		t.Fatalf("want ErrCrash, got %v", err)
	}
	// Crash preserves the prefix.
	if l.Len() != 2 {
		t.Fatalf("Len after crash = %d", l.Len())
	}
}

func TestFileLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !recordsEqual(got[i], want[i]) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestReadAllSkipsBlankAndReportsErrors(t *testing.T) {
	b, _ := Marshal(sampleRecords()[0])
	src := string(b) + "\n\n" + string(b) + "\n"
	recs, err := ReadAll(strings.NewReader(src))
	if err != nil || len(recs) != 2 {
		t.Fatalf("ReadAll: %d, %v", len(recs), err)
	}
	if _, err := ReadAll(strings.NewReader("garbage\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.wal")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestDiscard(t *testing.T) {
	if err := Discard.Append(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
}

// TestQuickValueCodec round-trips randomly generated values through the
// wire encoding.
func TestQuickValueCodec(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool, pick uint8) bool {
		var v expr.Value
		switch pick % 4 {
		case 0:
			v = expr.Int(i)
		case 1:
			v = expr.Float(fl)
		case 2:
			v = expr.String_(s)
		case 3:
			v = expr.Bool(b)
		}
		rec := Record{Type: RecDone, Instance: "i", Values: ValuesOf(map[string]expr.Value{"v": v})}
		data, err := Marshal(rec)
		if err != nil {
			return false
		}
		got, err := unmarshal(data)
		if err != nil {
			return false
		}
		gv, _ := got.Values.Get("v")
		return gv.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMarshalIsOneLine(t *testing.T) {
	for _, rec := range sampleRecords() {
		b, err := Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.ContainsRune(b, '\n') {
			t.Fatalf("record contains newline: %s", b)
		}
	}
}
