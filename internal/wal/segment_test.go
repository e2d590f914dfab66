package wal

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/expr"
)

func seqRecord(inst string, i int) Record {
	return Record{
		Type: RecFinishedActivity, Instance: inst,
		Path: fmt.Sprintf("A%d", i), Iter: 0,
		Values: ValuesOf(map[string]expr.Value{"RC": expr.Int(int64(i))}),
	}
}

// readClean reads every record of a segment directory through the
// ladder's non-mutating walk and fails on a torn tail — the strict read
// of a log that was closed cleanly.
func readClean(dir string) ([]Record, error) {
	h, err := Ladder{Path: dir, Full: true}.Read()
	if err != nil {
		return nil, err
	}
	if h.Torn != 0 {
		return nil, fmt.Errorf("%d torn bytes in a cleanly closed log", h.Torn)
	}
	return h.Tail, nil
}

func TestSegmentedLogRotatesAndReadsBack(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegmentedLog(dir, SegmentMaxRecords(4), SegmentFsync())
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 11; i++ {
		rec := seqRecord("i1", i)
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(l.SealedSegments()); got != 2 {
		t.Fatalf("sealed segments = %d, want 2 (11 records / 4 per segment)", got)
	}
	if l.ActiveRecords() != 3 {
		t.Fatalf("active records = %d, want 3", l.ActiveRecords())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readClean(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !recordsEqual(want[i], got[i]) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, want[i], got[i])
		}
	}
	// Every segment is individually a valid FileLog file: RepairFile works
	// per segment verbatim.
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 {
		t.Fatalf("segments on disk = %d, want 3", len(segs))
	}
	total := 0
	for _, s := range segs {
		recs, dropped, err := RepairFile(s.Path)
		if err != nil || dropped != 0 {
			t.Fatalf("segment %d: recs=%d dropped=%d err=%v", s.Index, len(recs), dropped, err)
		}
		total += len(recs)
	}
	if total != 11 {
		t.Fatalf("per-segment repair found %d records, want 11", total)
	}
}

func TestSegmentedLogReopenStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegmentedLog(dir, SegmentMaxRecords(100))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(seqRecord("i1", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenSegmentedLog(dir, SegmentMaxRecords(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(seqRecord("i1", 3)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].Index != 1 || segs[1].Index != 2 {
		t.Fatalf("segments after reopen: %+v", segs)
	}
	recs, dropped, err := RepairSegments(dir, 0)
	if err != nil || dropped != 0 || len(recs) != 4 {
		t.Fatalf("repair: recs=%d dropped=%d err=%v", len(recs), dropped, err)
	}
}

func TestRepairSegmentsRejectsMidLogTear(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegmentedLog(dir, SegmentMaxRecords(2), SegmentFsync())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(seqRecord("i1", i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Tear the tail of segment 1, which is followed by records in later
	// segments: that is lost history, not a crash signature.
	segs, _ := ListSegments(dir)
	data, _ := os.ReadFile(segs[0].Path)
	if err := os.WriteFile(segs[0].Path, data[:len(data)-7], 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RepairSegments(dir, 0); err == nil {
		t.Fatal("mid-log segment tear not rejected")
	}
}

func TestRepairSegmentsToleratesEmptyActiveAfterRotation(t *testing.T) {
	// A crash can land between sealing a segment and the first append to
	// its successor: the last file is empty (or the torn one is followed
	// only by empty files). Recovery must accept that.
	dir := t.TempDir()
	l, err := OpenSegmentedLog(dir, SegmentMaxRecords(2), SegmentFsync())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append(seqRecord("i1", i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate the half-done rotation: an empty next segment exists.
	if err := os.WriteFile(segPath(dir, 3), nil, 0o666); err != nil {
		t.Fatal(err)
	}
	recs, dropped, err := RepairSegments(dir, 0)
	if err != nil || dropped != 0 || len(recs) != 4 {
		t.Fatalf("recs=%d dropped=%d err=%v", len(recs), dropped, err)
	}
	// And with a torn tail in the last non-empty segment too.
	data, _ := os.ReadFile(segPath(dir, 2))
	if err := os.WriteFile(segPath(dir, 2), data[:len(data)-5], 0o666); err != nil {
		t.Fatal(err)
	}
	recs, dropped, err = RepairSegments(dir, 0)
	if err != nil || dropped == 0 || len(recs) != 3 {
		t.Fatalf("torn-then-empty: recs=%d dropped=%d err=%v", len(recs), dropped, err)
	}
}

func TestSegmentedGroupCommitKeepsBatchesInOneSegment(t *testing.T) {
	dir := t.TempDir()
	sl, err := OpenSegmentedLog(dir, SegmentMaxRecords(4))
	if err != nil {
		t.Fatal(err)
	}
	gl := NewGroupCommitSegmented(sl)
	for i := 0; i < 10; i++ {
		if err := gl.Append(seqRecord("i1", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := gl.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := readClean(dir)
	if err != nil || len(recs) != 10 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	segs, _ := ListSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("group-committed log never rotated: %d segments", len(segs))
	}
}

func TestSegmentedLogPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenSegmentedLog(dir, SegmentMaxRecords(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := l.Append(seqRecord("i1", i)); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := l.PruneEligible(2, nil)
	if err != nil || removed != 2 {
		t.Fatalf("removed=%d err=%v", removed, err)
	}
	segs, _ := ListSegments(dir)
	for _, s := range segs {
		if s.Index <= 2 {
			t.Fatalf("segment %d survived pruning", s.Index)
		}
	}
	// The surviving records are exactly those after the pruned prefix.
	l.Close()
	recs, _, err := RepairSegments(dir, 2)
	if err != nil || len(recs) != 3 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}
