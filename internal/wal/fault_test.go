package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func faultRec(i int) Record {
	return Record{Type: RecFinishedActivity, Instance: "i1", Path: "A", Iter: i}
}

// A FaultFS in count-only mode injects nothing and counts every
// write/sync op — whichever fault it would have injected, the crash at a
// byte included.
func TestFaultFSCountOnly(t *testing.T) {
	for _, kind := range []FaultKind{FaultEIO, FaultCrash} {
		fs := NewFaultFS(kind, 0)
		l, err := OpenFileLog(filepath.Join(t.TempDir(), "w.log"), WithFsync(), WithFS(fs))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := l.Append(faultRec(i)); err != nil {
				t.Fatalf("%v: append %d: %v", kind, i, err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if fs.Ops() == 0 || fs.Fired() {
			t.Fatalf("%v: ops=%d fired=%v, want counted ops and no fault", kind, fs.Ops(), fs.Fired())
		}
	}
}

// Sealed errors keep their cause: after the append that hit the fault,
// every later appender still learns what killed the log — errors.Is holds
// for ErrLogFailed and for the cause, on all three log types.
func TestSealedErrorsKeepCause(t *testing.T) {
	type appender interface {
		Append(Record) error
		Close() error
	}
	opens := map[string]func(t *testing.T, fs FS) appender{
		"file": func(t *testing.T, fs FS) appender {
			l, err := OpenFileLog(filepath.Join(t.TempDir(), "w.log"), WithFsync(), WithFS(fs))
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
		"segmented": func(t *testing.T, fs FS) appender {
			l, err := OpenSegmentedLog(t.TempDir(), SegmentFsync(), SegmentFS(fs), SegmentMaxRecords(2))
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
		"group": func(t *testing.T, fs FS) appender {
			l, err := OpenFileLog(filepath.Join(t.TempDir(), "w.log"), WithFS(fs))
			if err != nil {
				t.Fatal(err)
			}
			return NewGroupCommitLog(l)
		},
	}
	faults := []struct {
		name  string
		fs    func() *FaultFS
		cause error
	}{
		{"ENOSPC", func() *FaultFS { return NewFaultFS(FaultENOSPC, 3) }, ErrDiskFull},
		{"crash", func() *FaultFS { return NewFaultFS(FaultCrash, 100) }, ErrCrash},
	}
	for name, open := range opens {
		for _, fault := range faults {
			t.Run(name+"/"+fault.name, func(t *testing.T) {
				l := open(t, fault.fs())
				defer l.Close()
				var first error
				for i := 0; i < 10 && first == nil; i++ {
					first = l.Append(faultRec(i))
				}
				if !errors.Is(first, fault.cause) {
					t.Fatalf("first failure = %v, want %v", first, fault.cause)
				}
				second := l.Append(faultRec(99))
				if !errors.Is(second, ErrLogFailed) || !errors.Is(second, fault.cause) {
					t.Fatalf("second append = %v, want ErrLogFailed wrapping %v", second, fault.cause)
				}
			})
		}
	}
}

// An injected write fault fails the append with the typed sentinel and
// seals the log: every later append returns ErrLogFailed even though the
// "disk" recovered (one-shot fault).
func TestFileLogSealsAfterWriteFault(t *testing.T) {
	for _, kind := range []FaultKind{FaultEIO, FaultENOSPC} {
		t.Run(kind.String(), func(t *testing.T) {
			fs := NewFaultFS(kind, 3)
			l, err := OpenFileLog(filepath.Join(t.TempDir(), "w.log"), WithFsync(), WithFS(fs))
			if err != nil {
				t.Fatal(err)
			}
			var firstErr error
			n := 0
			for i := 0; i < 10 && firstErr == nil; i++ {
				firstErr = l.Append(faultRec(i))
				if firstErr == nil {
					n++
				}
			}
			want := error(ErrDiskIO)
			if kind == FaultENOSPC {
				want = ErrDiskFull
			}
			if !errors.Is(firstErr, want) {
				t.Fatalf("first failure = %v, want %v", firstErr, want)
			}
			if err := l.Append(faultRec(99)); !errors.Is(err, ErrLogFailed) {
				t.Fatalf("append after fault = %v, want ErrLogFailed", err)
			}
			if l.Failed() == nil {
				t.Fatal("Failed() = nil on sealed log")
			}
			if err := l.Close(); !errors.Is(err, ErrLogFailed) {
				t.Fatalf("Close on sealed log = %v, want ErrLogFailed", err)
			}
		})
	}
}

// Regression for the group-commit ack path: a batch whose write succeeds
// but whose fsync fails must fail every append it carries, and the log
// must refuse all later appends — a later batch syncing fine would
// otherwise ack records over possibly-dropped earlier bytes.
func TestGroupCommitNoAckAfterFsyncFault(t *testing.T) {
	fs := NewFaultFS(FaultFsync, 1) // first sync op fails
	inner, err := OpenFileLog(filepath.Join(t.TempDir(), "w.log"), WithFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	l := NewGroupCommitLog(inner)
	if err := l.Append(faultRec(1)); !errors.Is(err, ErrFsyncFailed) {
		t.Fatalf("append in fsync-failed batch = %v, want ErrFsyncFailed", err)
	}
	// The disk has "recovered" (one-shot fault) — the log must still
	// refuse: ack here would be the fsync-gate bug.
	if err := l.Append(faultRec(2)); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append after fsync fault = %v, want ErrLogFailed", err)
	}
	l.Close()
}

// The same seal contract holds for a SegmentedLog: a fault in any
// segment write seals the whole log, and rotation cannot resurrect it.
func TestSegmentedLogSealsAfterFault(t *testing.T) {
	fs := NewFaultFS(FaultFsync, 4)
	l, err := OpenSegmentedLog(t.TempDir(), SegmentFsync(), SegmentFS(fs), SegmentMaxRecords(2))
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	for i := 0; i < 20 && firstErr == nil; i++ {
		firstErr = l.Append(faultRec(i))
	}
	if !errors.Is(firstErr, ErrFsyncFailed) {
		t.Fatalf("first failure = %v, want ErrFsyncFailed", firstErr)
	}
	if err := l.Append(faultRec(99)); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append after fault = %v, want ErrLogFailed", err)
	}
	if l.Failed() == nil {
		t.Fatal("Failed() = nil on sealed log")
	}
	l.Close()
}

// Acked records survive a storage fault: everything appended before the
// fault reads back from disk after per-file repair (zero acked loss).
func TestFaultAckedRecordsSurvive(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.log")
	fs := NewFaultFS(FaultEIO, 7)
	l, err := OpenFileLog(path, WithFsync(), WithFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	for i := 0; i < 50; i++ {
		if err := l.Append(faultRec(i)); err != nil {
			break
		}
		acked++
	}
	if acked == 0 || acked == 50 {
		t.Fatalf("acked = %d, want a mid-log fault", acked)
	}
	l.Close()
	recs, _, err := RepairFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < acked {
		t.Fatalf("recovered %d records, acked %d — acked-append loss", len(recs), acked)
	}
}

// A checkpoint write through a faulty filesystem fails cleanly, leaving
// no visible (non-tmp) checkpoint that a reader could trust.
func TestWriteCheckpointFSFault(t *testing.T) {
	dir := t.TempDir()
	cp := &Checkpoint{Seq: 1, Cover: 0, Records: []Record{faultRec(1)}}
	for _, kind := range []FaultKind{FaultEIO, FaultFsync} {
		fs := NewFaultFS(kind, 1)
		if _, err := writeCheckpoint(fs, dir, cp); err == nil {
			t.Fatalf("%v: checkpoint write succeeded through fault", kind)
		}
		infos, err := ListCheckpoints(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 0 {
			t.Fatalf("%v: damaged checkpoint became visible: %v", kind, infos)
		}
	}
	// And a clean FS succeeds in the same directory afterwards.
	if _, err := writeCheckpoint(OSFS{}, dir, cp); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadCheckpoint(dir); err != nil || got == nil || got.Seq != 1 {
		t.Fatalf("recovered checkpoint = %+v, %v", got, err)
	}
}

// A sticky fault keeps failing matching operations; Fired reports it.
func TestFaultFSSticky(t *testing.T) {
	fs := NewFaultFS(FaultEIO, 1, FaultSticky())
	f, err := fs.Create(filepath.Join(t.TempDir(), "x"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Write([]byte("x")); !errors.Is(err, ErrDiskIO) {
			t.Fatalf("write %d = %v, want ErrDiskIO", i, err)
		}
	}
	if !fs.Fired() {
		t.Fatal("Fired() = false after injection")
	}
	f.Close()

	// A crash is sticky by nature: the write that crosses the byte keeps
	// what lies below it, and from then on the file system is gone — no
	// write, no sync, no new file (a dead process rotates no segment), no
	// rename (it publishes no checkpoint).
	dir := t.TempDir()
	fs = NewFaultFS(FaultCrash, 5)
	if f, err = fs.Create(filepath.Join(dir, "x")); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := f.Write([]byte("abc")); n != 3 || err != nil || fs.Fired() {
		t.Fatalf("write below the crash byte = %d, %v (fired=%v)", n, err, fs.Fired())
	}
	if n, err := f.Write([]byte("defg")); n != 2 || !errors.Is(err, ErrCrash) || !fs.Fired() {
		t.Fatalf("write across the crash byte = %d, %v (fired=%v), want 2, ErrCrash", n, err, fs.Fired())
	}
	if data, err := os.ReadFile(filepath.Join(dir, "x")); err != nil || string(data) != "abcde" {
		t.Fatalf("the crash left %q, %v", data, err)
	}
	if _, err := f.Write([]byte("h")); !errors.Is(err, ErrCrash) {
		t.Fatalf("write after the crash = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrash) {
		t.Fatalf("sync after the crash = %v", err)
	}
	if _, err := fs.Create(filepath.Join(dir, "y")); !errors.Is(err, ErrCrash) {
		t.Fatalf("create after the crash = %v", err)
	}
	if err := fs.Rename(filepath.Join(dir, "x"), filepath.Join(dir, "z")); !errors.Is(err, ErrCrash) {
		t.Fatalf("rename after the crash = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "z")); !os.IsNotExist(err) {
		t.Fatalf("the dead file system renamed a file: %v", err)
	}
}
