package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/obs"
)

// The crash table: create → write → crash → reopen → compare. Every stack
// a production log can be — a FileLog, a SegmentedLog rotating every 4
// records, group commit over each — writes the same 12 records in both
// framings on a FaultFS that kills the server at a byte, at every frame end
// (a clean crash: the next record never reaches the file) and inside every
// frame (a torn one), and what the crash left is held to the recovery
// contract.

// crashStack is one log stack of the table.
type crashStack struct {
	name  string
	dir   bool // a segment directory, else a single file
	group bool // group commit on top
}

var crashStacks = []crashStack{
	{name: "file"},
	{name: "segmented", dir: true},
	{name: "group-file", group: true},
	{name: "group-segmented", dir: true, group: true},
}

// crashBatches is how the 12 records arrive: batches of several records, so
// a cut can tear a batch after some of its frames are whole, and so that
// the segmented stacks rotate after 4 and after 10 records.
var crashBatches = []int{1, 3, 2, 4, 2}

const crashTotal = 12

func crashRecords() []Record {
	recs := make([]Record, crashTotal)
	for i := range recs {
		recs[i] = seqRecord("i1", i)
	}
	return recs
}

type batchLogCloser interface {
	AppendBatch([]Record) error
	Close() error
}

// open opens the stack at path over fs, durable on every append.
func (st crashStack) open(t *testing.T, path string, f Format, fs FS) batchLogCloser {
	t.Helper()
	gopt := GroupWithMetricsRegistry(obs.NewRegistry())
	if st.dir {
		opts := []SegmentOption{SegmentMaxRecords(4), SegmentFormat(f), SegmentFS(fs),
			SegmentMetricsRegistry(obs.NewRegistry())}
		if !st.group {
			opts = append(opts, SegmentFsync())
		}
		l, err := OpenSegmentedLog(path, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if st.group {
			return NewGroupCommitSegmented(l, gopt)
		}
		return l
	}
	opts := []FileOption{WithFormat(f), WithFS(fs), WithMetricsRegistry(obs.NewRegistry())}
	if !st.group {
		opts = append(opts, WithFsync())
	}
	l, err := OpenFileLog(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if st.group {
		return NewGroupCommitLog(l, gopt)
	}
	return l
}

// run writes the 12 records over fs until an append fails and returns how
// many were acknowledged. A failure must be the crash, must fail its batch
// as a unit, and must leave the log dead: the next append is refused with
// both ErrLogFailed and the cause.
func (st crashStack) run(t *testing.T, path string, f Format, fs FS) (acked int) {
	t.Helper()
	l := st.open(t, path, f, fs)
	defer l.Close()
	recs := crashRecords()
	for _, n := range crashBatches {
		if err := l.AppendBatch(recs[acked : acked+n]); err != nil {
			if !errors.Is(err, ErrCrash) {
				t.Fatalf("append after %d records: %v, want ErrCrash", acked, err)
			}
			again := l.AppendBatch(recs[:1])
			if !errors.Is(again, ErrLogFailed) || !errors.Is(again, ErrCrash) {
				t.Fatalf("append on the dead log: %v, want ErrLogFailed wrapping ErrCrash", again)
			}
			return acked
		}
		acked += n
	}
	return acked
}

// diskFiles returns the content of the log file, or of every file in the
// segment directory, by name.
func diskFiles(t *testing.T, path string) map[string]string {
	t.Helper()
	paths := []string{path}
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*")); err != nil {
			t.Fatal(err)
		}
	}
	files := make(map[string]string, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[p] = string(data)
	}
	return files
}

func diskBytes(files map[string]string) (n int64) {
	for _, data := range files {
		n += int64(len(data))
	}
	return n
}

// strictRead reads the log back with the strict reader, file by file.
func strictRead(path string) ([]Record, error) {
	paths := []string{path}
	if segs, err := ListSegments(path); err == nil {
		paths = paths[:0]
		for _, seg := range segs {
			paths = append(paths, seg.Path)
		}
	}
	var recs []Record
	for _, p := range paths {
		rs, err := ReadFile(p)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rs...)
	}
	return recs, nil
}

// checkCrash crashes a rerun of the table's workload at byte b and holds
// what is left to the contract: the file is exactly b bytes; every
// acknowledged record is in it, and acknowledged means the whole batches
// below b; a tolerant read keeps exactly the whole frames below b; Recover
// repairs a torn tail, after which the log reads back strictly; a second
// Recover changes no byte.
func (st crashStack) checkCrash(t *testing.T, f Format, ends []int64, b int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	fs := NewFaultFS(FaultCrash, b)
	acked := st.run(t, path, f, fs)
	if !fs.Fired() {
		t.Fatalf("b=%d: crash never fired", b)
	}
	kept := 0 // whole frames below b
	for kept < len(ends) && ends[kept] <= b {
		kept++
	}
	wantAcked := 0
	for _, n := range crashBatches {
		if wantAcked+n > kept {
			break
		}
		wantAcked += n
	}
	if acked != wantAcked {
		t.Fatalf("b=%d: %d records acknowledged, want %d (whole batches among %d frames)", b, acked, wantAcked, kept)
	}
	if got := diskBytes(diskFiles(t, path)); got != b {
		t.Fatalf("b=%d: crash left %d bytes on disk", b, got)
	}
	clean := kept > 0 && ends[kept-1] == b
	if recs, err := strictRead(path); clean && (err != nil || len(recs) != kept) {
		t.Fatalf("b=%d: strict read of a clean crash: %d records, %v", b, len(recs), err)
	} else if !clean && err == nil {
		t.Fatalf("b=%d: strict read accepted a torn log", b)
	}
	read, err := Ladder{Path: path, Full: true}.Read()
	if err != nil || len(read.Tail) != kept || (read.Torn == 0) != clean {
		t.Fatalf("b=%d: tolerant read kept %d of %d frames, torn %d (clean=%v), %v", b, len(read.Tail), kept, read.Torn, clean, err)
	}
	if got := diskBytes(diskFiles(t, path)); got != b {
		t.Fatalf("b=%d: Read wrote to the log (%d bytes now)", b, got)
	}
	h, err := Ladder{Path: path, Full: true}.Recover()
	if err != nil || h.Torn != read.Torn {
		t.Fatalf("b=%d: Recover: torn %d, want %d, %v", b, h.Torn, read.Torn, err)
	}
	want := crashRecords()[:kept]
	for i, rec := range h.Tail {
		if i >= kept || !recordsEqual(rec, want[i]) {
			t.Fatalf("b=%d: recovered record %d is %+v", b, i, rec)
		}
	}
	after := diskFiles(t, path)
	if got := diskBytes(after); got != b-int64(h.Torn) {
		t.Fatalf("b=%d: repair left %d bytes, want %d", b, got, b-int64(h.Torn))
	}
	if recs, err := strictRead(path); err != nil || len(recs) != kept {
		t.Fatalf("b=%d: strict read after repair: %d records, %v", b, len(recs), err)
	}
	if h2, err := (Ladder{Path: path, Full: true}).Recover(); err != nil || h2.Torn != 0 || len(h2.Tail) != kept {
		t.Fatalf("b=%d: second Recover: %d records, torn %d, %v", b, len(h2.Tail), h2.Torn, err)
	}
	for p, data := range diskFiles(t, path) {
		if after[p] != data {
			t.Fatalf("b=%d: second Recover changed %s", b, p)
		}
	}
}

func TestCrashTable(t *testing.T) {
	for _, st := range crashStacks {
		for _, f := range []Format{FormatText, FormatBinary} {
			t.Run(st.name+"/"+f.String(), func(t *testing.T) {
				// The crash-free run: the bytes every rerun writes a prefix of.
				path := filepath.Join(t.TempDir(), "log")
				counter := NewFaultFS(FaultCrash, 0)
				if acked := st.run(t, path, f, counter); acked != crashTotal {
					t.Fatalf("crash-free run acknowledged %d records", acked)
				}
				ends, err := FrameEnds(path)
				if err != nil || len(ends) != crashTotal {
					t.Fatalf("FrameEnds: %d ends, %v", len(ends), err)
				}
				total := diskBytes(diskFiles(t, path))
				if ends[crashTotal-1] != total {
					t.Fatalf("last frame ends at %d of %d bytes", ends[crashTotal-1], total)
				}

				// B <= 0 is the count-only mode, as a MemLog's CrashAfter 0 and
				// wfrun's -crash-at 0 mean "never": the run above was it.
				t.Run("B=0 never fires", func(t *testing.T) {
					if counter.Fired() || counter.Ops() == 0 {
						t.Fatalf("fired=%v ops=%d", counter.Fired(), counter.Ops())
					}
					if recs, err := strictRead(path); err != nil || len(recs) != crashTotal {
						t.Fatalf("strict read: %d records, %v", len(recs), err)
					}
				})
				t.Run("B past the end never fires", func(t *testing.T) {
					fs := NewFaultFS(FaultCrash, total+1)
					p := filepath.Join(t.TempDir(), "log")
					if acked := st.run(t, p, f, fs); acked != crashTotal || fs.Fired() {
						t.Fatalf("acked=%d fired=%v", acked, fs.Fired())
					}
				})
				// A clean crash after every record: the first k appends are
				// whole, the file reads back strictly with k records, nothing
				// is torn. At a segment's last frame end the crash falls
				// between rotation's create and the next segment's first
				// write: an empty file is left behind.
				t.Run("every frame end", func(t *testing.T) {
					for k := 1; k < crashTotal; k++ {
						st.checkCrash(t, f, ends, ends[k-1])
					}
				})
				// A torn crash inside every record, the first included: a cut
				// inside a batch leaves the batch's earlier frames whole and
				// unacknowledged; the torn tail is detected, repaired away,
				// and only then does the strict reader accept the log.
				t.Run("every torn cut", func(t *testing.T) {
					for k := 0; k < crashTotal; k++ {
						st.checkCrash(t, f, ends, CrashCut(ends, k, true))
					}
				})
				// A crash inside a file's first bytes — a binary log's 8-byte
				// header, torn — in the first file and, for the segmented
				// stacks, in a freshly rotated segment.
				t.Run("torn header", func(t *testing.T) {
					st.checkCrash(t, f, ends, 3)
					if st.dir {
						st.checkCrash(t, f, ends, ends[3]+3)
						st.checkCrash(t, f, ends, ends[9]+1)
					}
				})
			})
		}
	}
}

// TestCrashTableConcurrent is the table's row for appenders that share
// batches: 8 writers on one GroupCommitLog, killed at a byte of the
// crash-free run. The bytes of a concurrent run are not reproducible, so
// the row asserts what holds for any cut: the file is exactly b bytes, a
// batch the crash hit acknowledged none of its appends, no append is
// acknowledged after it, and every acknowledged record survives repair.
func TestCrashTableConcurrent(t *testing.T) {
	const writers, perWriter = 8, 20
	run := func(path string, fs FS) (acked []string) {
		flog, err := OpenFileLog(path, WithFS(fs), WithMetricsRegistry(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		g := NewGroupCommitLog(flog, GroupWithMetricsRegistry(obs.NewRegistry()))
		defer g.Close()
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(inst string) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if err := g.Append(gcRecord(inst, i)); err != nil {
						if !errors.Is(err, ErrCrash) {
							t.Errorf("%s append %d: %v", inst, i, err)
						}
						return // dead; later appends fail too
					}
					mu.Lock()
					acked = append(acked, fmt.Sprintf("%s/a%d", inst, i))
					mu.Unlock()
				}
			}(fmt.Sprintf("i%d", w))
		}
		wg.Wait()
		return acked
	}
	base := filepath.Join(t.TempDir(), "gc.wal")
	if acked := run(base, OSFS{}); len(acked) != writers*perWriter {
		t.Fatalf("crash-free run acknowledged %d appends", len(acked))
	}
	ends, err := FrameEnds(base)
	if err != nil || len(ends) != writers*perWriter {
		t.Fatalf("FrameEnds: %d ends, %v", len(ends), err)
	}
	check := func(t *testing.T, b int64) {
		path := filepath.Join(t.TempDir(), "gc.wal")
		fs := NewFaultFS(FaultCrash, b)
		acked := run(path, fs)
		if !fs.Fired() || len(acked) == writers*perWriter {
			t.Fatalf("b=%d: fired=%v with %d appends acknowledged", b, fs.Fired(), len(acked))
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != b {
			t.Fatalf("b=%d: crash left %d bytes, %v", b, fi.Size(), err)
		}
		recs, _, err := RepairFile(path)
		if err != nil {
			t.Fatalf("b=%d: repair: %v", b, err)
		}
		onDisk := make(map[string]bool, len(recs))
		for _, r := range recs {
			onDisk[r.Instance+"/"+r.Path] = true
		}
		for _, key := range acked {
			if !onDisk[key] {
				t.Fatalf("b=%d: acknowledged append %s missing from the repaired log", b, key)
			}
		}
		if again, err := ReadFile(path); err != nil || len(again) != len(recs) {
			t.Fatalf("b=%d: strict read after repair: %d records, %v", b, len(again), err)
		}
	}
	t.Run("clean", func(t *testing.T) {
		check(t, ends[39])
		check(t, ends[99])
	})
	t.Run("short-write", func(t *testing.T) {
		check(t, CrashCut(ends, 40, true))
		check(t, CrashCut(ends, 100, true))
	})
}
