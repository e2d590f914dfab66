package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
)

func gcRecord(inst string, i int) Record {
	return Record{
		Type:     RecFinishedActivity,
		Instance: inst,
		Path:     fmt.Sprintf("a%d", i),
		Iter:     0,
		Values:   ValuesOf(map[string]expr.Value{"RC": expr.Int(int64(i))}),
	}
}

// TestGroupCommitSequential: with a single appender and no window, group
// commit degenerates to per-record fsync; every record must land on disk
// in order and be strictly readable.
func TestGroupCommitSequential(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.wal")
	flog, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupCommitLog(flog, GroupWithMetricsRegistry(obs.NewRegistry()))
	const n = 25
	for i := 0; i < n; i++ {
		if err := g.Append(gcRecord("i1", i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Path != fmt.Sprintf("a%d", i) {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
	}
}

// TestGroupCommitConcurrent hammers one GroupCommitLog from many
// goroutines (run under -race). Every acknowledged append must be on
// disk after Close, batching must actually happen (fewer batches than
// records), and each instance's records must appear in its append order.
func TestGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.wal")
	flog, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g := NewGroupCommitLog(flog, GroupWithMetricsRegistry(reg))
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			inst := fmt.Sprintf("i%d", w)
			for i := 0; i < perWriter; i++ {
				if err := g.Append(gcRecord(inst, i)); err != nil {
					t.Errorf("append %s/%d: %v", inst, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*perWriter {
		t.Fatalf("got %d records, want %d", len(recs), writers*perWriter)
	}
	next := make(map[string]int)
	for _, r := range recs {
		want := fmt.Sprintf("a%d", next[r.Instance])
		if r.Path != want {
			t.Fatalf("instance %s: got %s, want %s (per-instance order broken)", r.Instance, r.Path, want)
		}
		next[r.Instance]++
	}
	snap := reg.Snapshot()
	batches := snap.Counters["wal.group.batches"]
	if batches == 0 || snap.Counters["wal.group.records"] != writers*perWriter {
		t.Fatalf("metrics: batches=%d records=%d", batches, snap.Counters["wal.group.records"])
	}
	if testing.Short() {
		return
	}
	if batches >= writers*perWriter {
		t.Fatalf("no batching happened: %d batches for %d records", batches, writers*perWriter)
	}
}

// TestGroupCommitWindowAndMaxBatch: a window leader waits for followers;
// a full batch cuts the window short.
func TestGroupCommitWindowAndMaxBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.wal")
	flog, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g := NewGroupCommitLog(flog,
		GroupWindow(20*time.Millisecond),
		GroupMaxBatch(4),
		GroupWithMetricsRegistry(reg))
	const writers = 4
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := g.Append(gcRecord(fmt.Sprintf("i%d", w), 0)); err != nil {
				t.Errorf("append: %v", err)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["wal.group.records"]; got != writers {
		t.Fatalf("records=%d, want %d", got, writers)
	}
	// All four writers fit one full batch, which must not have waited the
	// whole window per batch times four.
	if elapsed > 150*time.Millisecond {
		t.Fatalf("appends took %v; full-batch cut of the window seems broken", elapsed)
	}
}

// TestGroupCommitClose: Append after Close fails with ErrLogClosed, and
// Close is idempotent.
func TestGroupCommitClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gc.wal")
	flog, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupCommitLog(flog, GroupWithMetricsRegistry(obs.NewRegistry()))
	if err := g.Append(gcRecord("i1", 0)); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := g.Append(gcRecord("i1", 1)); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("append after close: %v, want ErrLogClosed", err)
	}
}
