package wal

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/expr"
)

// fuzzSeeds is the seed corpus of the decoder fuzz targets: whole logs in
// both framings — clean, torn, damaged, legacy — and, last, the bare
// binary frame bodies of the two records they are built from.
func fuzzSeeds(f *testing.F) [][]byte {
	rec := Record{
		Type: RecFinishedActivity, Instance: "i1", Path: "A", Iter: 2,
		Values: ValuesOf(map[string]expr.Value{"RC": expr.Int(0), "s": expr.String_("x")}),
	}
	b, err := Marshal(rec)
	if err != nil {
		f.Fatal(err)
	}
	clean := append(frameLine(b), '\n')
	seeds := [][]byte{
		append([]byte{}, clean...),
		bytes.Repeat(clean, 3),
		clean[:len(clean)/2],                                 // torn tail
		[]byte(`{"t":"created","inst":"i"}` + "\n"),          // legacy plain JSON
		[]byte("deadbeef {\"t\":\"done\",\"inst\":\"i\"}\n"), // checksum mismatch
		[]byte("\n\n"),
		{},
	}

	// Binary-framing seeds: a clean one-record log, a multi-record log
	// whose payloads carry the PR 6 parity-bug byte classes (\r, \n, 0x00,
	// empty strings), a torn frame, a torn header, and a bad format byte.
	nasty := Record{
		Type: RecFinishedActivity, Instance: "i\r\n1", Path: "A\x00B", Iter: -3,
		Values: ValuesOf(map[string]expr.Value{"": expr.String_(""), "crlf": expr.String_("a\r\nb\x00c")}),
	}
	binLog := FileHeader(FormatBinary)
	binLog, err = AppendRecordBinary(binLog, rec)
	if err != nil {
		f.Fatal(err)
	}
	binLog, err = AppendRecordBinary(binLog, nasty)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds,
		append([]byte{}, binLog...),
		binLog[:len(binLog)-3],          // torn binary tail
		binLog[:fileHeaderLen-2],        // torn file header
		append(FileHeader(7), clean...), // unsupported format byte
	)

	// Headered text log (format byte 0) and the same nasty payloads in
	// text framing.
	nb, err := Marshal(nasty)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, append(FileHeader(FormatText), clean...), append(frameLine(nb), '\n'))

	for _, r := range []Record{rec, nasty, {Type: "custom", Instance: "i2", Process: "P"}} {
		body, err := MarshalBinary(r)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	return seeds
}

// FuzzReadRecords drives the WAL frame decoder with arbitrary bytes — both
// framings, since the scanner sniffs the file header. The decoder must
// never panic, a strictly-readable log must also read tolerantly with
// nothing dropped, and every record the decoder accepts must re-marshal in
// both formats (no unrepresentable values smuggled in off the wire).
func FuzzReadRecords(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		strict, serr := ReadAll(bytes.NewReader(data))
		tol, dropped, terr := ReadAllTolerant(bytes.NewReader(data))
		if serr == nil {
			if terr != nil {
				t.Fatalf("strict read ok but tolerant failed: %v", terr)
			}
			if dropped != 0 || len(tol) != len(strict) {
				t.Fatalf("clean log: tolerant dropped %d bytes, %d vs %d records",
					dropped, len(tol), len(strict))
			}
		}
		for _, r := range tol {
			if _, err := Marshal(r); err != nil {
				t.Fatalf("accepted record does not re-marshal as text: %v", err)
			}
			if _, err := MarshalBinary(r); err != nil {
				t.Fatalf("accepted record does not re-marshal as binary: %v", err)
			}
		}
	})
}

// FuzzBodyValidateEquivalence pins that there is one binary body decoder:
// for arbitrary bytes, the walk that validates a frame without
// materialising it — what an instance-filtered scan does to every frame of
// another instance — returns an error exactly when UnmarshalBinary does,
// with the same message, and on success names the same instance. A body
// whose damage only the materialising walk noticed would let a filtered
// query read through corruption a full read reports.
func FuzzBodyValidateEquivalence(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
		if len(seed) > 2 {
			f.Add(seed[:len(seed)-2])                   // truncated
			f.Add(append(append([]byte{}, seed...), 0)) // trailing byte
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, werr := UnmarshalBinary(body)
		// A filter no frame can match: the walk validates only.
		s := scan{instance: want.Instance + "+"}
		var rec Record
		instance, keep, err := s.body(body, &rec)
		if keep || !reflect.DeepEqual(rec, Record{}) {
			t.Fatalf("the validating walk materialised %+v", rec)
		}
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("validating walk: %v; UnmarshalBinary: %v", err, werr)
		}
		if err == nil && string(instance) != want.Instance {
			t.Fatalf("validating walk names instance %q, UnmarshalBinary %q", instance, want.Instance)
		}
		// And the walk that does match materialises the same record.
		s = scan{instance: want.Instance}
		if _, keep, err := s.body(body, &rec); werr == nil && (err != nil || !keep || !reflect.DeepEqual(rec, want)) {
			t.Fatalf("matching walk: %+v keep=%v err=%v, want %+v", rec, keep, err, want)
		}
	})
}
