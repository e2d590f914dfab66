package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readAllTolerant decodes a log stream in either on-disk format,
// tolerating a torn or corrupt final record by dropping it — the
// non-mutating read of what RepairFile would keep. It returns the
// surviving records and the number of trailing bytes discarded (0 when
// the log is clean). Corruption anywhere but the tail is still an error.
func readAllTolerant(r io.Reader) ([]Record, int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	s := newScan("")
	_, dropped, err := s.log(data, false)
	if err != nil {
		return nil, 0, err
	}
	return s.recs, dropped, nil
}

// writeFileLog writes the sample records to path through a FileLog.
func writeFileLog(t *testing.T, path string, recs []Record, opts ...FileOption) {
	t.Helper()
	l, err := OpenFileLog(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileLogLinesAreCRCFramed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "framed.wal")
	writeFileLog(t, path, sampleRecords())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != len(sampleRecords()) {
		t.Fatalf("%d lines, want %d", len(lines), len(sampleRecords()))
	}
	for _, line := range lines {
		if len(line) < 10 || line[8] != ' ' || line[9] != '{' {
			t.Fatalf("line not CRC-framed: %q", line)
		}
	}
}

func TestChecksumDetectsBitRot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rot.wal")
	writeFileLog(t, path, sampleRecords())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the JSON body of the last record: still valid
	// framing, wrong checksum.
	i := len(data) - 5
	data[i] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit rot not detected: %v", err)
	}
	// As tail corruption it is tolerated, dropping only the last record.
	recs, dropped, err := readLog(path, false)
	if err != nil || len(recs) != len(sampleRecords())-1 || dropped == 0 {
		t.Fatalf("tolerant read: %d records, %d dropped, %v", len(recs), dropped, err)
	}
}

func TestTornTailToleratedAndRepaired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	writeFileLog(t, path, sampleRecords())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file mid-way through the final record, no trailing newline —
	// the on-disk state a crash during the last write leaves behind.
	cut := len(data) - 12
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("strict read accepted a torn tail")
	}
	recs, dropped, err := readLog(path, false)
	if err != nil || len(recs) != len(sampleRecords())-1 || dropped == 0 {
		t.Fatalf("tolerant read: %d records, %d dropped, %v", len(recs), dropped, err)
	}
	// Truncate-and-resume: after RepairFile the log is strictly clean.
	recs2, truncated, err := RepairFile(path)
	if err != nil || len(recs2) != len(recs) || truncated == 0 {
		t.Fatalf("RepairFile: %d records, %d truncated, %v", len(recs2), truncated, err)
	}
	clean, err := ReadFile(path)
	if err != nil || len(clean) != len(recs) {
		t.Fatalf("log not clean after repair: %d records, %v", len(clean), err)
	}
	// Repairing a clean log is a no-op.
	if _, truncated, err := RepairFile(path); err != nil || truncated != 0 {
		t.Fatalf("repair of clean log: %d truncated, %v", truncated, err)
	}
}

func TestMidLogCorruptionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mid.wal")
	writeFileLog(t, path, sampleRecords())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the FIRST record: valid records follow, so this
	// is lost history, not a torn tail, and must not be silently dropped.
	data[15] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readLog(path, false); err == nil {
		t.Fatal("mid-log corruption tolerated")
	}
	if _, _, err := RepairFile(path); err == nil {
		t.Fatal("mid-log corruption repaired away")
	}
}

func TestEmptyLogFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.wal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, err := ReadFile(path); err != nil || len(recs) != 0 {
		t.Fatalf("strict: %d records, %v", len(recs), err)
	}
	if recs, dropped, err := readLog(path, false); err != nil || len(recs) != 0 || dropped != 0 {
		t.Fatalf("tolerant: %d records, %d dropped, %v", len(recs), dropped, err)
	}
	if _, truncated, err := RepairFile(path); err != nil || truncated != 0 {
		t.Fatalf("repair: %d truncated, %v", truncated, err)
	}
}

func TestLegacyPlainJSONLinesAccepted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.wal")
	var sb strings.Builder
	for _, rec := range sampleRecords() {
		b, err := Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadFile(path)
	if err != nil || len(recs) != len(sampleRecords()) {
		t.Fatalf("strict: %d records, %v", len(recs), err)
	}
	recs, dropped, err := readLog(path, false)
	if err != nil || len(recs) != len(sampleRecords()) || dropped != 0 {
		t.Fatalf("tolerant: %d records, %d dropped, %v", len(recs), dropped, err)
	}
	for i, rec := range recs {
		if !recordsEqual(rec, sampleRecords()[i]) {
			t.Fatalf("record %d mismatch: %+v", i, rec)
		}
	}
}

func TestFsyncAppendIsImmediatelyDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fsync.wal")
	l, err := OpenFileLog(path, WithFsync())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	// Without Close: the record must already be on disk.
	recs, err := ReadFile(path)
	if err != nil || len(recs) != 1 {
		t.Fatalf("after fsync append: %d records, %v", len(recs), err)
	}
}
