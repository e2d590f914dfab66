package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// appendOnly hides everything but Append, as the crash-injecting logs and
// the wrappers outside this package do.
type appendOnly struct{ Log }

// TestAppendAllFallbackKeepsRecordBoundaries: over a log that has only
// Append, AppendAll is the per-record sequence — a crash on record k
// leaves exactly the k records before it.
func TestAppendAllFallbackKeepsRecordBoundaries(t *testing.T) {
	recs := sampleRecords()
	for k := 0; k <= len(recs); k++ {
		mem := &MemLog{CrashAfter: k}
		err := AppendAll(appendOnly{mem}, recs)
		want := len(recs)
		if k > 0 && k < len(recs) {
			want = k
			if !errors.Is(err, ErrCrash) {
				t.Fatalf("CrashAfter=%d: AppendAll = %v, want ErrCrash", k, err)
			}
		} else if err != nil {
			t.Fatalf("CrashAfter=%d: AppendAll = %v", k, err)
		}
		got := mem.Records()
		if len(got) != want {
			t.Fatalf("CrashAfter=%d: %d records, want %d", k, len(got), want)
		}
		for i := range got {
			if !recordsEqual(got[i], recs[i]) {
				t.Fatalf("CrashAfter=%d: record %d = %+v, want %+v", k, i, got[i], recs[i])
			}
		}
	}
	if err := AppendAll(appendOnly{&MemLog{CrashAfter: 1}}, nil); err != nil {
		t.Fatalf("empty AppendAll = %v", err)
	}
}

// TestAppendBatchWritesTheSameBytes: on every durable log, in both
// framings, handing records over in batches writes byte for byte what one
// Append per record writes and counts as many appends. The segmented log
// rotates only between batches, so its segment boundaries may differ, but
// the concatenation of its segments' frames may not.
func TestAppendBatchWritesTheSameBytes(t *testing.T) {
	recs := append(sampleRecords(), sampleRecords()...)
	type durable interface {
		Log
		Close() error
	}
	kinds := map[string]func(t *testing.T, dir string, f Format, reg *obs.Registry) durable{
		"file": func(t *testing.T, dir string, f Format, reg *obs.Registry) durable {
			l, err := OpenFileLog(segPath(dir, 1), WithFsync(), WithFormat(f), WithMetricsRegistry(reg))
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
		"segmented": func(t *testing.T, dir string, f Format, reg *obs.Registry) durable {
			l, err := OpenSegmentedLog(dir, SegmentFsync(), SegmentFormat(f), SegmentMaxRecords(4), SegmentMetricsRegistry(reg))
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
		"group": func(t *testing.T, dir string, f Format, reg *obs.Registry) durable {
			l, err := OpenFileLog(segPath(dir, 1), WithFormat(f), WithMetricsRegistry(reg))
			if err != nil {
				t.Fatal(err)
			}
			return NewGroupCommitLog(l, GroupWithMetricsRegistry(reg))
		},
	}
	// write appends recs step at a time and returns the frames on disk
	// (every segment file minus its header, concatenated) and the append
	// count.
	write := func(t *testing.T, open func(*testing.T, string, Format, *obs.Registry) durable, f Format, step int) ([]byte, int64) {
		dir, reg := t.TempDir(), obs.NewRegistry()
		log := open(t, dir, f, reg)
		for i := 0; i < len(recs); i += step {
			if err := AppendAll(log, recs[i:min(i+step, len(recs))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := ListSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		var frames []byte
		for _, seg := range segs {
			data, err := os.ReadFile(seg.Path)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, bytes.TrimPrefix(data, FileHeader(f))...)
		}
		return frames, reg.Counter("wal.file.appends").Value()
	}
	for kind, open := range kinds {
		for _, f := range []Format{FormatText, FormatBinary} {
			t.Run(fmt.Sprintf("%s/%v", kind, f), func(t *testing.T) {
				decode := func(frames []byte) []Record {
					got, err := ReadAll(bytes.NewReader(append(FileHeader(f), frames...)))
					if err != nil {
						t.Fatal(err)
					}
					return got
				}
				want, _ := write(t, open, f, 1)
				if got := decode(want); len(got) != len(recs) {
					t.Fatalf("per-record run left %d records, want %d", len(got), len(recs))
				}
				for _, step := range []int{2, 3, len(recs)} {
					got, appends := write(t, open, f, step)
					if appends != int64(len(recs)) {
						t.Errorf("step %d: wal.file.appends = %d, want %d", step, appends, len(recs))
					}
					if !bytes.Equal(got, want) {
						t.Errorf("step %d: frames on disk differ from the per-record run", step)
					}
				}
			})
		}
	}
}

// TestLoneBatchAppenderLeavesNoHerd: the herd a commit waits for is
// counted in appenders. A lone caller bringing three records a time must
// not make its next commit wait herdWait for followers that do not exist.
func TestLoneBatchAppenderLeavesNoHerd(t *testing.T) {
	flog, err := OpenFileLog(filepath.Join(t.TempDir(), "gc.wal"))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g := NewGroupCommitLog(flog, GroupWithMetricsRegistry(reg))
	defer g.Close()
	for i := 0; i < 5; i++ {
		if err := g.AppendBatch([]Record{gcRecord("i1", 3*i), gcRecord("i1", 3*i+1), gcRecord("i1", 3*i+2)}); err != nil {
			t.Fatal(err)
		}
		if g.lastHerd != 1 {
			t.Fatalf("batch %d: herd estimate %d after a lone appender, want 1", i, g.lastHerd)
		}
	}
	if b, r := reg.Counter("wal.group.batches").Value(), reg.Counter("wal.group.records").Value(); b != 5 || r != 15 {
		t.Fatalf("batches=%d records=%d, want 5 and 15", b, r)
	}
}

// TestGroupCommitMixedAppendAndBatch mixes Append and AppendBatch callers
// on one GroupCommitLog while Close cuts in (run under -race -count=10).
// Every call is all or nothing: what a caller was acknowledged is on disk
// in the caller's order, what it was refused is not, and Close returns
// only after the batches admitted before it have drained.
func TestGroupCommitMixedAppendAndBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.wal")
	flog, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupCommitLog(flog, GroupWithMetricsRegistry(obs.NewRegistry()))
	const writers = 8
	const closeAfter = 400 // acknowledged records before Close cuts in
	var acked [writers]int
	var total atomic.Int64
	reached := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			inst := fmt.Sprintf("i%d", w)
			size := w%4 + 1 // writers 0 and 4 use Append, the rest batches of 2..4
			for {
				var err error
				if size == 1 {
					err = g.Append(gcRecord(inst, acked[w]))
				} else {
					batch := make([]Record, size)
					for i := range batch {
						batch[i] = gcRecord(inst, acked[w]+i)
					}
					err = g.AppendBatch(batch)
				}
				if err != nil {
					if !errors.Is(err, ErrLogClosed) {
						t.Errorf("%s: %v", inst, err)
					}
					return
				}
				acked[w] += size
				if total.Add(int64(size)) >= closeAfter {
					once.Do(func() { close(reached) })
				}
			}
		}(w)
	}
	<-reached
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next := make(map[string]int)
	for _, r := range recs {
		if want := fmt.Sprintf("a%d", next[r.Instance]); r.Path != want {
			t.Fatalf("instance %s: got %s, want %s (order within a caller broken)", r.Instance, r.Path, want)
		}
		next[r.Instance]++
	}
	for w := 0; w < writers; w++ {
		if got := next[fmt.Sprintf("i%d", w)]; got != acked[w] {
			t.Errorf("writer %d: %d records on disk, %d acknowledged", w, got, acked[w])
		}
	}
}
