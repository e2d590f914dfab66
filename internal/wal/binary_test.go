package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
)

// parityRecords is the shared cross-format test corpus: every record type
// code, every value kind, and the payload byte classes the PR 6 CRLF bug
// taught us to distrust — \r, \n, 0x00, empty strings, and empty keys —
// plus negative iterations and a long field.
func parityRecords() []Record {
	return []Record{
		{Type: RecCreated, Instance: "i1", Process: "Travel", Values: ValuesOf(map[string]expr.Value{
			"FROM": expr.String_("SJC"), "N": expr.Int(3),
		})},
		{Type: RecStartedActivity, Instance: "i1", Path: "Flight", Iter: 0},
		{Type: RecFinishedActivity, Instance: "i1", Path: "Flight", Iter: 2, Values: ValuesOf(map[string]expr.Value{
			"RC": expr.Int(0), "price": expr.Float(412.5), "ok": expr.Bool(true), "note": expr.String_(""),
		})},
		{Type: RecDone, Instance: "i1", Values: ValuesOf(map[string]expr.Value{"RC": expr.Int(0)})},
		{Type: "probe", Instance: "probe"}, // non-standard type (E10's seal probe)
		{Type: RecFinishedActivity, Instance: "i\r\n2", Path: "A\x00B", Iter: -7, Values: ValuesOf(map[string]expr.Value{
			"":     expr.String_(""),
			"crlf": expr.String_("line1\r\nline2\rline3\nline4"),
			"nul":  expr.String_("a\x00b"),
			"neg":  expr.Int(-1 << 60),
			"f":    expr.Float(-0.0),
		})},
		{Type: RecFinishedActivity, Instance: "long", Path: strings.Repeat("p/", 500), Iter: 1, Values: ValuesOf(map[string]expr.Value{
			"big": expr.String_(strings.Repeat("x", 1<<16)),
		})},
		{Type: RecDone, Instance: "empty-values", Values: ValuesOf(map[string]expr.Value{})},
	}
}

// TestBinaryRoundTrip checks appendBinaryBody/UnmarshalBinary invert each
// other over the full parity corpus.
func TestBinaryRoundTrip(t *testing.T) {
	for i, rec := range parityRecords() {
		body, err := appendBinaryBody(nil, rec)
		if err != nil {
			t.Fatalf("record %d: appendBinaryBody: %v", i, err)
		}
		got, err := UnmarshalBinary(body)
		if err != nil {
			t.Fatalf("record %d: UnmarshalBinary: %v", i, err)
		}
		if !recordsEqual(rec, got) {
			t.Fatalf("record %d: round trip mismatch:\n in: %+v\nout: %+v", i, rec, got)
		}
	}
}

// TestCrossFormatParity is the satellite property test: every record
// Marshal'd in text decodes identically from binary and vice versa —
// encode in one format, decode, re-encode in the other, decode again, and
// all decoded views must match.
func TestCrossFormatParity(t *testing.T) {
	for i, rec := range parityRecords() {
		jb, err := Marshal(rec)
		if err != nil {
			t.Fatalf("record %d: Marshal: %v", i, err)
		}
		fromText, err := unmarshal(jb)
		if err != nil {
			t.Fatalf("record %d: unmarshal: %v", i, err)
		}
		bb, err := appendBinaryBody(nil, fromText) // text → binary conversion
		if err != nil {
			t.Fatalf("record %d: appendBinaryBody(nil, text-decoded): %v", i, err)
		}
		fromBinary, err := UnmarshalBinary(bb)
		if err != nil {
			t.Fatalf("record %d: UnmarshalBinary: %v", i, err)
		}
		if !recordsEqual(fromText, fromBinary) {
			t.Fatalf("record %d: text and binary decode differently:\ntext:   %+v\nbinary: %+v", i, fromText, fromBinary)
		}
		// And back: binary → text conversion decodes identically too.
		jb2, err := Marshal(fromBinary)
		if err != nil {
			t.Fatalf("record %d: Marshal(binary-decoded): %v", i, err)
		}
		back, err := unmarshal(jb2)
		if err != nil {
			t.Fatalf("record %d: unmarshal(round 2): %v", i, err)
		}
		if !recordsEqual(back, fromBinary) {
			t.Fatalf("record %d: binary→text conversion drifted: %+v vs %+v", i, back, fromBinary)
		}
	}
}

// TestEncodeDomainParity checks a record marshals in one format iff it
// marshals in the other — the invariant that keeps mixed-format logs
// lossless.
func TestEncodeDomainParity(t *testing.T) {
	bad := []Record{
		{Type: RecDone, Values: ValuesOf(map[string]expr.Value{"n": expr.Value{}})}, // NULL value
	}
	for i, rec := range bad {
		_, terr := Marshal(rec)
		_, berr := appendBinaryBody(nil, rec)
		if (terr == nil) != (berr == nil) {
			t.Fatalf("record %d: encode domains diverge: text err %v, binary err %v", i, terr, berr)
		}
	}
}

// buildBinaryLog frames recs as a complete binary log file image.
func buildBinaryLog(t *testing.T, recs []Record) ([]byte, []int) {
	t.Helper()
	data := FileHeader(FormatBinary)
	bounds := []int{len(data)} // byte offset after the header and each frame
	for _, r := range recs {
		var err error
		data, err = appendRecordBinary(data, r)
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, len(data))
	}
	return data, bounds
}

// TestBinaryFileHeaderNegotiation checks the reader sniffs all three
// header shapes: headerless text, headered text (format byte 0), and
// headered binary.
func TestBinaryFileHeaderNegotiation(t *testing.T) {
	recs := parityRecords()
	jb, err := Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	textLog := append(frameLine(jb), '\n')
	headeredText := append(FileHeader(FormatText), textLog...)
	binLog, _ := buildBinaryLog(t, recs[:1])

	for name, data := range map[string][]byte{
		"bare text": textLog, "headered text": headeredText, "binary": binLog,
	} {
		got, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 1 || !recordsEqual(got[0], recs[0]) {
			t.Fatalf("%s: decoded %+v", name, got)
		}
	}

	if _, err := ReadAll(bytes.NewReader(FileHeader(9))); err == nil {
		t.Fatal("unsupported format byte read strictly without error")
	}
	if _, _, err := readAllTolerant(bytes.NewReader(FileHeader(9))); err == nil {
		t.Fatal("unsupported format byte read tolerantly without error")
	}
	bogus := append([]byte{0xF5, 'X'}, textLog...)
	if _, err := ReadAll(bytes.NewReader(bogus)); err == nil {
		t.Fatal("bad magic read without error")
	}
}

// TestBinaryTornTailSweep truncates a binary log at every byte offset.
// Tolerant reads must succeed everywhere, returning exactly the records
// whose frames are complete; strict reads must fail except at frame
// boundaries. This is the binary analogue of the E7 crash-point sweep.
func TestBinaryTornTailSweep(t *testing.T) {
	recs := parityRecords()[:4]
	data, bounds := buildBinaryLog(t, recs)
	isBoundary := func(n int) int {
		for i, b := range bounds {
			if n == b {
				return i // i complete records
			}
		}
		return -1
	}
	for cut := 0; cut <= len(data); cut++ {
		part := data[:cut]
		got, dropped, err := readAllTolerant(bytes.NewReader(part))
		if err != nil {
			t.Fatalf("cut %d: tolerant read failed: %v", cut, err)
		}
		want := 0
		for _, b := range bounds {
			if cut >= b {
				want++
			}
		}
		want-- // bounds[0] is the header, not a record
		if want < 0 {
			want = 0
		}
		if len(got) != want {
			t.Fatalf("cut %d: got %d records, want %d", cut, len(got), want)
		}
		if k := isBoundary(cut); k >= 0 || cut == 0 {
			if dropped != 0 {
				t.Fatalf("cut %d: clean boundary dropped %d bytes", cut, dropped)
			}
			if _, err := ReadAll(bytes.NewReader(part)); err != nil {
				t.Fatalf("cut %d: strict read at boundary failed: %v", cut, err)
			}
		} else {
			valid := 0 // a torn header has no valid prefix at all
			if cut >= bounds[0] {
				valid = bounds[want]
			}
			if dropped != cut-valid {
				t.Fatalf("cut %d: dropped %d bytes, want %d", cut, dropped, cut-valid)
			}
			if _, err := ReadAll(bytes.NewReader(part)); err == nil {
				t.Fatalf("cut %d: strict read of torn log succeeded", cut)
			}
		}
	}
}

// TestBinaryMidLogCorruption checks the text reader's torn-tail-vs-lost-
// history distinction carries over: a corrupt final frame is dropped, a
// corrupt frame with valid data after it is an error.
func TestBinaryMidLogCorruption(t *testing.T) {
	recs := parityRecords()[:3]
	data, bounds := buildBinaryLog(t, recs)

	// Flip a byte in the FINAL frame's body: torn tail, dropped.
	tail := append([]byte{}, data...)
	tail[bounds[3]-1] ^= 0xFF
	got, dropped, err := readAllTolerant(bytes.NewReader(tail))
	if err != nil {
		t.Fatalf("corrupt tail: %v", err)
	}
	if len(got) != 2 || dropped == 0 {
		t.Fatalf("corrupt tail: %d records, %d dropped", len(got), dropped)
	}

	// Flip a byte in the FIRST frame's body: mid-log corruption, error.
	mid := append([]byte{}, data...)
	mid[bounds[1]-1] ^= 0xFF
	if _, _, err := readAllTolerant(bytes.NewReader(mid)); err == nil {
		t.Fatal("mid-log corruption read tolerantly without error")
	}
	if _, err := ReadAll(bytes.NewReader(mid)); err == nil {
		t.Fatal("mid-log corruption read strictly without error")
	}
}

// TestBinaryRepairFile checks RepairFile truncates a torn binary log to
// its valid prefix — keeping the file header — and the repaired file then
// reads back strictly clean.
func TestBinaryRepairFile(t *testing.T) {
	recs := parityRecords()[:3]
	data, bounds := buildBinaryLog(t, recs)
	path := filepath.Join(t.TempDir(), "wal.bin")
	torn := data[:bounds[2]+5] // 2 complete frames + 5 bytes of the third
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	got, dropped, err := RepairFile(path)
	if err != nil {
		t.Fatalf("RepairFile: %v", err)
	}
	if len(got) != 2 || dropped != 5 {
		t.Fatalf("RepairFile: %d records, %d dropped", len(got), dropped)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data[:bounds[2]]) {
		t.Fatalf("repaired file is not the valid prefix (len %d, want %d)", len(after), bounds[2])
	}
	if _, err := ReadFile(path); err != nil {
		t.Fatalf("repaired file fails strict read: %v", err)
	}

	// Repairing a torn header leaves an empty (zero-record) log.
	if err := os.WriteFile(path, data[:4], 0o644); err != nil {
		t.Fatal(err)
	}
	got, dropped, err = RepairFile(path)
	if err != nil || len(got) != 0 || dropped != 4 {
		t.Fatalf("torn header repair: recs %d dropped %d err %v", len(got), dropped, err)
	}
}

// TestStrictTolerantParityBothFormats writes the parity corpus through a
// real FileLog in each format and checks strict and tolerant reads agree
// exactly — the satellite audit for the PR 6 divergence class.
func TestStrictTolerantParityBothFormats(t *testing.T) {
	for _, format := range []Format{FormatText, FormatBinary} {
		t.Run(format.String(), func(t *testing.T) {
			recs := parityRecords()
			path := filepath.Join(t.TempDir(), "wal.log")
			l, err := OpenFileLog(path, WithFormat(format))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			strict, serr := ReadFile(path)
			tol, dropped, terr := readLog(path, false)
			if serr != nil || terr != nil {
				t.Fatalf("read errors: strict %v tolerant %v", serr, terr)
			}
			if dropped != 0 {
				t.Fatalf("clean log dropped %d bytes tolerantly", dropped)
			}
			if len(strict) != len(recs) || len(tol) != len(recs) {
				t.Fatalf("record counts: strict %d tolerant %d want %d", len(strict), len(tol), len(recs))
			}
			for i := range recs {
				if !recordsEqual(strict[i], recs[i]) || !recordsEqual(tol[i], recs[i]) {
					t.Fatalf("record %d drifted through %s framing", i, format)
				}
			}
		})
	}
}

// TestLargeRecordStrictRead is the regression test for the strict-reader
// line cap: the old bufio.Scanner-based ReadAll refused lines over its
// buffer cap that the tolerant reader accepted, so a valid log could fail
// its post-repair strict read-back. Both readers now share one scanner.
func TestLargeRecordStrictRead(t *testing.T) {
	big := Record{Type: RecFinishedActivity, Instance: "i", Path: "A", Values: ValuesOf(map[string]expr.Value{
		"blob": expr.String_(strings.Repeat("y", 17<<20)), // one ~17 MiB line
	})}
	jb, err := Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	data := append(frameLine(jb), '\n')
	strict, serr := ReadAll(bytes.NewReader(data))
	tol, dropped, terr := readAllTolerant(bytes.NewReader(data))
	if serr != nil || terr != nil {
		t.Fatalf("read errors: strict %v tolerant %v", serr, terr)
	}
	if len(strict) != 1 || len(tol) != 1 || dropped != 0 {
		t.Fatalf("large record: strict %d tolerant %d dropped %d", len(strict), len(tol), dropped)
	}
}

// TestFileAppendIdleBusZeroAlloc is the allocs/op regression gate from the
// ISSUE: with an idle event bus and no per-append fsync, the binary
// FileLog append path must not allocate (CI runs this test; B13 reports
// the same number).
func TestFileAppendIdleBusZeroAlloc(t *testing.T) {
	if obs.DefaultBus.Active() {
		t.Skip("event bus active; hot path intentionally allocates events")
	}
	path := filepath.Join(t.TempDir(), "wal.bin")
	l, err := OpenFileLog(path, WithFormat(FormatBinary))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := Record{Type: RecFinishedActivity, Instance: "inst-00042", Path: "Flight", Iter: 1,
		Values: ValuesOf(map[string]expr.Value{"RC": expr.Int(0)})}
	// Warm up so the encode scratch reaches steady-state capacity.
	for i := 0; i < 64; i++ {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("idle-bus binary append allocates %.1f allocs/op, want 0", allocs)
	}
}

// scanCorpus writes a binary log of n records: five instances of one
// process, round-robin, each opened by a created record and continued by
// finished activities on three paths whose output holds two integers.
func scanCorpus(t *testing.T, n int) (path string, distinct int) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "scan.wal")
	l, err := OpenFileLog(path, WithFormat(FormatBinary))
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"Flight", "Hotel", "Car"}
	for i := 0; i < n; i++ {
		rec := Record{Type: RecFinishedActivity, Instance: fmt.Sprintf("inst-%05d", i%5), Path: paths[i%len(paths)], Iter: i,
			Values: ValuesOf(map[string]expr.Value{"RC": expr.Int(0), "N": expr.Int(int64(i))})}
		if i < 5 {
			rec = Record{Type: RecCreated, Instance: rec.Instance, Process: "Travel", Values: rec.Values}
		}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path, 5 + 1 + len(paths) + 2
}

// TestScanAllocCeilings gates what reading a log allocates (CI runs it
// beside the append gate). A walk that names an instance the log does not
// hold validates every frame and materialises none: its allocations are
// the file buffer and bookkeeping, the same number for 100 records as for
// 500. A walk that keeps everything adds, on top of that, its record
// slice — once, sized by hopping the length prefixes — one string per
// distinct instance, process, path and value key (interned for the walk;
// the slack is the intern table's own growth), one Vals slice per record,
// and per distinct container type one key vector (the Keys slice every
// record of the type shares and its entry in the walk's table; the scratch
// the member names are collected in is allocated once) — and nothing else
// per record.
func TestScanAllocCeilings(t *testing.T) {
	const records = 500
	small, _ := scanCorpus(t, records/5)
	big, distinct := scanCorpus(t, records)
	walk := func(path, instance string, want int) float64 {
		return testing.AllocsPerRun(20, func() {
			h, err := Ladder{Path: path, Instance: instance}.Read()
			if err != nil || len(h.Tail) != want || h.Len() == 0 {
				t.Fatalf("walk of %s for %q: %d records err=%v, want %d", path, instance, len(h.Tail), err, want)
			}
		})
	}
	absent := walk(big, "nobody", 0)
	if few := walk(small, "nobody", 0); few != absent || absent > 20 {
		t.Fatalf("a filtered walk that keeps nothing allocates %.0f objects over %d records, %.0f over %d: want the same, and <= 20",
			absent, records, few, records/5)
	}
	const (
		internSlack    = 8
		containerTypes = 1 // every record of the corpus carries {N, RC}
		perKeyVector   = 2 // the Keys slice and the table entry's key
		keyScratch     = 1
	)
	whole := walk(big, "", records)
	if ceiling := absent + 1 + float64(distinct) + internSlack + records + containerTypes*perKeyVector + keyScratch; whole > ceiling {
		t.Fatalf("an unfiltered walk of %d records allocates %.0f objects, ceiling %.0f (bookkeeping %.0f + 1 slice + %d strings + %d table growth + %d Vals slices + %d key vectors of %d + %d scratch)",
			records, whole, ceiling, absent, distinct, internSlack, records, containerTypes, perKeyVector, keyScratch)
	}
	t.Logf("absent %.0f, whole %.0f over %d records", absent, whole, records)
}

// TestDecodersAgreeOnAnyMemberOrder: whatever order a file names a record's
// members in, and however often it names one, the text decoder, the binary
// decoder of one body (UnmarshalBinary) and the binary decoder of a whole
// walk (interned key vectors) return the same Values: keys sorted, each
// once, the last occurrence's value — what reading into a map gave.
func TestDecodersAgreeOnAnyMemberOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	names := []string{"RC", "N", "a", "a.b", "State_1", "State_2", "", "é"}
	randomValue := func() expr.Value {
		switch rng.Intn(4) {
		case 0:
			return expr.Int(rng.Int63() - rng.Int63())
		case 1:
			return expr.Float(rng.NormFloat64())
		case 2:
			return expr.String_(fmt.Sprintf("s%d", rng.Intn(9)))
		}
		return expr.Bool(rng.Intn(2) == 0)
	}
	var recs, want []Record
	var log, text []byte
	log = append(log, FileHeader(FormatBinary)...)
	for i := 0; i < 300; i++ {
		rec := Record{Type: RecFinishedActivity, Instance: fmt.Sprintf("i%d", i%3), Path: "A", Iter: i}
		last := map[string]expr.Value{}
		members := "" // the text body's "vals" object, in file order
		for n := rng.Intn(7); n > 0; n-- {
			k, v := names[rng.Intn(len(names))], randomValue() // repeats a name now and then
			rec.Values.Keys, rec.Values.Vals = append(rec.Values.Keys, k), append(rec.Values.Vals, v)
			last[k] = v
			jv, err := encodeValue(v)
			if err != nil {
				t.Fatal(err)
			}
			kb, _ := json.Marshal(k)
			vb, _ := json.Marshal(jv)
			members += "," + string(kb) + ":" + string(vb)
		}
		canon := rec
		canon.Values = ValuesOf(last)

		body, err := appendBinaryBody(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		fromBinary, err := UnmarshalBinary(body)
		if err != nil || !reflect.DeepEqual(fromBinary, canon) {
			t.Fatalf("record %d %v: binary decodes to %v (err=%v), want %v", i, rec.Values, fromBinary.Values, err, canon.Values)
		}
		line := fmt.Sprintf(`{"t":"activity","inst":%q,"path":"A","iter":%d`, rec.Instance, rec.Iter)
		if members != "" {
			line += `,"vals":{` + members[1:] + "}"
		}
		line += "}"
		fromText, err := unmarshal([]byte(line))
		if err != nil || !reflect.DeepEqual(fromText, canon) {
			t.Fatalf("record %d %s: text decodes to %v (err=%v), want %v", i, line, fromText.Values, err, canon.Values)
		}
		recs, want = append(recs, rec), append(want, canon)
		if log, err = appendRecordBinary(log, rec); err != nil {
			t.Fatal(err)
		}
		text = append(appendTextFrame(text, []byte(line)), '\n')
	}
	for name, data := range map[string][]byte{"binary": log, "text": text} {
		got, err := ReadAll(bytes.NewReader(data))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s walk: err=%v\n%v\nwant\n%v", name, err, got, want)
		}
	}
	// Records whose frames name the same members, in the order the encoder
	// writes them, share one Keys slice for the walk.
	got, _ := ReadAll(bytes.NewReader(log))
	shared := 0
	for i := range got {
		if len(got[i].Values.Keys) == 0 || !reflect.DeepEqual(recs[i].Values.Keys, want[i].Values.Keys) {
			continue
		}
		for j := 0; j < i; j++ {
			if reflect.DeepEqual(recs[i].Values.Keys, recs[j].Values.Keys) {
				if &got[i].Values.Keys[0] != &got[j].Values.Keys[0] {
					t.Fatalf("records %d and %d name %v alike and do not share a key vector", j, i, recs[i].Values.Keys)
				}
				shared++
				break
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two records of the corpus name the same members in the same order")
	}
}
