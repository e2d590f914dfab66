package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// writeBlobFile drops a file with the given contents into dir and
// returns its path.
func writeBlobFile(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestArchiveDirStoreRoundTrip(t *testing.T) {
	st, err := NewDirStore(filepath.Join(t.TempDir(), "arch"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("missing"); !errors.Is(err, ErrStoreMiss) {
		t.Fatalf("get missing: %v, want ErrStoreMiss", err)
	}
	if err := st.Put("b", []byte("bbb")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("a", []byte("aaa")); err != nil {
		t.Fatal(err)
	}
	// Overwrite is allowed (sealed blobs re-uploaded after restart).
	if err := st.Put("a", []byte("aaa")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("a")
	if err != nil || string(got) != "aaa" {
		t.Fatalf("get a: %q, %v", got, err)
	}
	// A crashed Put's temporary must not appear in listings.
	writeBlobFile(t, st.Dir(), "c.tmp", []byte("torn"))
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("list: %v", names)
	}
	if err := st.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("a"); err != nil { // absent delete is a no-op
		t.Fatal(err)
	}
	if _, err := st.Get("a"); !errors.Is(err, ErrStoreMiss) {
		t.Fatalf("get deleted: %v, want ErrStoreMiss", err)
	}
}

func TestArchiveFaultStoreSchedule(t *testing.T) {
	inner, err := NewDirStore(filepath.Join(t.TempDir(), "arch"))
	if err != nil {
		t.Fatal(err)
	}
	// Count-only mode: failAt <= 0 injects nothing.
	counter := NewFaultStore(inner, StoreUnavailable, 0)
	if err := counter.Put("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := counter.Get("a"); err != nil {
		t.Fatal(err)
	}
	if counter.Ops() != 2 || counter.Fired() {
		t.Fatalf("count-only: ops=%d fired=%v", counter.Ops(), counter.Fired())
	}

	// Transient fault: fires exactly once at the scheduled op.
	fs := NewFaultStore(inner, StoreUnavailable, 2)
	if err := fs.Put("a", []byte("x")); err != nil {
		t.Fatalf("op 1 should pass: %v", err)
	}
	if err := fs.Put("b", []byte("y")); !errors.Is(err, ErrStoreUnavailable) {
		t.Fatalf("op 2: %v, want ErrStoreUnavailable", err)
	}
	if err := fs.Put("b", []byte("y")); err != nil {
		t.Fatalf("transient fault fired twice: %v", err)
	}

	// Sticky fault: every matching op from failAt onward fails.
	sticky := NewFaultStore(inner, StoreUnavailable, 1, StoreSticky())
	for i := 0; i < 3; i++ {
		if _, err := sticky.Get("a"); !errors.Is(err, ErrStoreUnavailable) {
			t.Fatalf("sticky op %d: %v", i, err)
		}
	}

	// Kind/op matching: a corrupt-read fault scheduled at op 1 must wait
	// for the first Get, letting the Put through untouched.
	cr := NewFaultStore(inner, StoreCorruptRead, 1)
	if err := cr.Put("c", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	got, err := cr.Get("c")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) == "hello world" {
		t.Fatal("corrupt-read fault did not corrupt")
	}
	if crc32Checksum(got) == crc32Checksum([]byte("hello world")) {
		t.Fatal("corruption not CRC-detectable")
	}
}

// newTestArchiver builds an archiver with fast test timings over store,
// isolating metrics in a private registry.
func newTestArchiver(store Store, opts ...ArchiverOption) (*Archiver, *obs.Registry) {
	reg := obs.NewRegistry()
	base := []ArchiverOption{
		ArchiveOpTimeout(200 * time.Millisecond),
		ArchiveBackoff(time.Millisecond, 4*time.Millisecond),
		ArchiveBreakerCooldown(2 * time.Millisecond),
		ArchiveMetricsRegistry(reg),
		ArchiveSeed(1),
	}
	return NewArchiver(store, append(base, opts...)...), reg
}

func TestArchiverUploadsAndVerifies(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(filepath.Join(dir, "arch"))
	if err != nil {
		t.Fatal(err)
	}
	a, reg := newTestArchiver(st)
	p1 := writeBlobFile(t, dir, "wal-000001.seg", []byte("segment one\n"))
	p2 := writeBlobFile(t, dir, "ckpt-000001.ckpt", []byte("checkpoint one\n"))
	a.Enqueue(p1)
	a.Enqueue(p1) // duplicate enqueue is a no-op
	a.Enqueue(p2)
	if lag := a.Lag(); lag != 2 {
		t.Fatalf("pre-start lag = %d, want 2", lag)
	}
	a.Start()
	defer a.Stop()
	if !a.Drain(2 * time.Second) {
		t.Fatal("archiver did not drain")
	}
	for _, name := range []string{"wal-000001.seg", "ckpt-000001.ckpt"} {
		if !a.Verified(name) {
			t.Fatalf("%s not verified", name)
		}
		local, _ := os.ReadFile(filepath.Join(dir, name))
		arch, err := st.Get(name)
		if err != nil || string(arch) != string(local) {
			t.Fatalf("%s archived bytes differ: %v", name, err)
		}
	}
	if n := reg.Counter("wal.archive.archived").Value(); n != 2 {
		t.Fatalf("archived counter = %d, want 2", n)
	}
	if n := reg.Gauge("wal.archive.queue.depth").Value(); n != 0 {
		t.Fatalf("queue depth = %d, want 0", n)
	}
	if n := reg.Gauge("wal.archive.queued_bytes").Value(); n != 0 {
		t.Fatalf("queued bytes = %d, want 0", n)
	}
	// A second enqueue of a verified name is ignored even after the file
	// changes locally (sealed files never change).
	a.Enqueue(p1)
	if lag := a.Lag(); lag != 0 {
		t.Fatalf("verified re-enqueue lag = %d, want 0", lag)
	}
}

// flapStore fails every operation with ErrStoreUnavailable until the
// first failN operations have been rejected, then recovers — the shape a
// breaker must ride out and then close on.
type flapStore struct {
	inner Store
	mu    sync.Mutex
	failN int
}

func (s *flapStore) step() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failN > 0 {
		s.failN--
		return ErrStoreUnavailable
	}
	return nil
}

func (s *flapStore) Put(name string, data []byte) error {
	if err := s.step(); err != nil {
		return err
	}
	return s.inner.Put(name, data)
}

func (s *flapStore) Get(name string) ([]byte, error) {
	if err := s.step(); err != nil {
		return nil, err
	}
	return s.inner.Get(name)
}

func (s *flapStore) List() ([]string, error) {
	if err := s.step(); err != nil {
		return nil, err
	}
	return s.inner.List()
}

func (s *flapStore) Delete(name string) error {
	if err := s.step(); err != nil {
		return err
	}
	return s.inner.Delete(name)
}

func TestArchiverRetriesAndBreaker(t *testing.T) {
	dir := t.TempDir()
	inner, err := NewDirStore(filepath.Join(dir, "arch"))
	if err != nil {
		t.Fatal(err)
	}
	st := &flapStore{inner: inner, failN: 4}
	a, reg := newTestArchiver(st, ArchiveBreakerAfter(2))

	var mu sync.Mutex
	var kinds []string
	detach := obs.DefaultBus.Attach(func(ev obs.Event) {
		if strings.HasPrefix(ev.Kind, "wal.archive.") {
			mu.Lock()
			kinds = append(kinds, ev.Kind)
			mu.Unlock()
		}
	})
	defer detach()

	path := writeBlobFile(t, dir, "wal-000001.seg", []byte("records\n"))
	a.Enqueue(path)
	a.Start()
	defer a.Stop()
	if !a.Drain(2 * time.Second) {
		t.Fatal("archiver did not recover after backend came back")
	}
	if !a.Verified("wal-000001.seg") {
		t.Fatal("blob not verified after recovery")
	}
	if a.BreakerOpen() {
		t.Fatal("breaker still open after successful upload")
	}
	if n := reg.Counter("wal.archive.retries").Value(); n != 4 {
		t.Fatalf("retries = %d, want 4", n)
	}
	if n := reg.Gauge("wal.archive.breaker.open").Value(); n != 0 {
		t.Fatalf("breaker gauge = %d, want 0", n)
	}
	mu.Lock()
	defer mu.Unlock()
	var opened, closed, put bool
	for _, k := range kinds {
		switch k {
		case obs.EvArchiveBreakerOpen:
			opened = true
		case obs.EvArchiveBreakerClose:
			closed = true
		case obs.EvArchivePut:
			put = true
		}
	}
	if !opened || !closed || !put {
		t.Fatalf("events opened=%v closed=%v put=%v: %v", opened, closed, put, kinds)
	}
}

func TestArchiverPartialWriteCaughtByVerify(t *testing.T) {
	dir := t.TempDir()
	inner, err := NewDirStore(filepath.Join(dir, "arch"))
	if err != nil {
		t.Fatal(err)
	}
	// The first Put silently truncates the blob and reports success; only
	// the read-back CRC comparison can catch it.
	st := NewFaultStore(inner, StorePartialWrite, 1)
	a, reg := newTestArchiver(st)
	path := writeBlobFile(t, dir, "wal-000001.seg", []byte("full segment contents\n"))
	a.Enqueue(path)
	a.Start()
	defer a.Stop()
	if !a.Drain(2 * time.Second) {
		t.Fatal("archiver did not drain")
	}
	got, err := inner.Get("wal-000001.seg")
	if err != nil || string(got) != "full segment contents\n" {
		t.Fatalf("archived blob after retry: %q, %v", got, err)
	}
	if n := reg.Counter("wal.archive.retries").Value(); n < 1 {
		t.Fatal("partial write was not retried — verify missed it")
	}
}

func TestArchiverCorruptReadCaughtByVerify(t *testing.T) {
	dir := t.TempDir()
	inner, err := NewDirStore(filepath.Join(dir, "arch"))
	if err != nil {
		t.Fatal(err)
	}
	// The Put lands clean but the verify Get returns a flipped bit: the
	// archiver must not mark the blob verified on that evidence.
	st := NewFaultStore(inner, StoreCorruptRead, 2)
	a, reg := newTestArchiver(st)
	path := writeBlobFile(t, dir, "ckpt-000001.ckpt", []byte("checkpoint contents\n"))
	a.Enqueue(path)
	a.Start()
	defer a.Stop()
	if !a.Drain(2 * time.Second) {
		t.Fatal("archiver did not drain")
	}
	if !a.Verified("ckpt-000001.ckpt") {
		t.Fatal("blob not verified after the transient corrupt read")
	}
	if n := reg.Counter("wal.archive.retries").Value(); n < 1 {
		t.Fatal("corrupt read-back was not retried")
	}
}

func TestArchiverOpTimeout(t *testing.T) {
	dir := t.TempDir()
	inner, err := NewDirStore(filepath.Join(dir, "arch"))
	if err != nil {
		t.Fatal(err)
	}
	// The faulted op stalls well past the archiver's deadline, so the
	// per-op timeout — not the store's eventual answer — drives the retry.
	st := NewFaultStore(inner, StoreTimeout, 1, StoreTimeoutDelay(300*time.Millisecond))
	a, reg := newTestArchiver(st, ArchiveOpTimeout(20*time.Millisecond))
	path := writeBlobFile(t, dir, "wal-000001.seg", []byte("records\n"))
	a.Enqueue(path)
	a.Start()
	defer a.Stop()
	if !a.Drain(3 * time.Second) {
		t.Fatal("archiver did not drain")
	}
	if n := reg.Counter("wal.archive.retries").Value(); n < 1 {
		t.Fatal("timed-out op was not retried")
	}
	if !a.Verified("wal-000001.seg") {
		t.Fatal("blob not verified after timeout recovery")
	}
}

func TestArchiverDropsVanishedFile(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(filepath.Join(dir, "arch"))
	if err != nil {
		t.Fatal(err)
	}
	a, reg := newTestArchiver(st)
	path := writeBlobFile(t, dir, "wal-000009.seg", []byte("doomed\n"))
	a.Enqueue(path)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	a.Start()
	defer a.Stop()
	if !a.Drain(2 * time.Second) {
		t.Fatal("archiver did not drain the vanished job")
	}
	if a.Verified("wal-000009.seg") {
		t.Fatal("vanished file marked verified")
	}
	if n := reg.Counter("wal.archive.drops").Value(); n != 1 {
		t.Fatalf("drops = %d, want 1", n)
	}
}

// archiveCheckpoint builds a small valid checkpoint and returns its
// serialized bytes plus the parsed form for comparison.
func archiveCheckpoint(t *testing.T, seq, cover int) ([]byte, *Checkpoint) {
	t.Helper()
	dir := t.TempDir()
	cp := BuildCheckpoint(nil, fleetHistory(), cover)
	cp.Seq = seq
	path, err := WriteCheckpoint(dir, cp)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, cp
}

// TestArchiveCheckpointRungFetchesAndRejectsCorrupt is the PR's pinned
// regression: the newest checkpoint exists only in the archive, and the
// archive hands back a corrupt blob for it. Recovery must CRC-reject the
// corrupt blob (counted in recover.checkpoint_fallbacks), fall through
// to the older archived checkpoint, and report the archive rung.
func TestArchiveCheckpointRungFetchesAndRejectsCorrupt(t *testing.T) {
	local := t.TempDir()
	st, err := NewDirStore(filepath.Join(t.TempDir(), "arch"))
	if err != nil {
		t.Fatal(err)
	}
	newest, _ := archiveCheckpoint(t, 2, 5)
	corrupt := append([]byte(nil), newest...)
	corrupt[len(corrupt)/2] ^= 0x40
	if err := st.Put("ckpt-000002.ckpt", corrupt); err != nil {
		t.Fatal(err)
	}
	older, olderCp := archiveCheckpoint(t, 1, 3)
	if err := st.Put("ckpt-000001.ckpt", older); err != nil {
		t.Fatal(err)
	}

	before := fallbackCount()
	fetches := obs.Default.Counter("recover.archive_fetches").Value()
	h, err := Ladder{Path: local, Store: st}.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if h.Rung != SourceArchiveCheckpoint {
		t.Fatalf("source = %q, want %q", h.Rung, SourceArchiveCheckpoint)
	}
	if cp := h.Checkpoint; cp == nil || cp.Seq != olderCp.Seq || cp.Cover != olderCp.Cover {
		t.Fatalf("recovered checkpoint: %+v, want seq %d", cp, olderCp.Seq)
	}
	if got := fallbackCount() - before; got != 1 {
		t.Fatalf("checkpoint_fallbacks delta = %d, want 1 (the corrupt archived blob)", got)
	}
	if got := obs.Default.Counter("recover.archive_fetches").Value() - fetches; got != 1 {
		t.Fatalf("archive_fetches delta = %d, want 1", got)
	}

	// With every archived copy corrupt, the ladder lands on full replay.
	st2, err := NewDirStore(filepath.Join(t.TempDir(), "arch2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Put("ckpt-000002.ckpt", corrupt); err != nil {
		t.Fatal(err)
	}
	before = fallbackCount()
	h, err = Ladder{Path: t.TempDir(), Store: st2}.Recover()
	if err != nil || h.Checkpoint != nil {
		t.Fatalf("all-corrupt archive: %+v err=%v", h, err)
	}
	if h.Rung != SourceFullReplay {
		t.Fatalf("source = %q, want %q", h.Rung, SourceFullReplay)
	}
	if got := fallbackCount() - before; got != 1 {
		t.Fatalf("checkpoint_fallbacks delta = %d, want 1", got)
	}
}

func TestArchiveCheckpointLadderPrefersLocal(t *testing.T) {
	local := t.TempDir()
	cp := BuildCheckpoint(nil, fleetHistory(), 3)
	if _, err := WriteCheckpoint(local, cp); err != nil {
		t.Fatal(err)
	}
	inner, err := NewDirStore(filepath.Join(t.TempDir(), "arch"))
	if err != nil {
		t.Fatal(err)
	}
	// Count-only FaultStore proves the checkpoint rungs never consult the
	// archive when a local checkpoint reads back clean (the tail step of a
	// whole walk lists the store, so this drives the rungs alone).
	st := NewFaultStore(inner, StoreUnavailable, 0)
	got, src, err := loadCheckpoint(local, st)
	if err != nil || got == nil {
		t.Fatalf("load: %v, %v", got, err)
	}
	if src != SourceNewestCheckpoint {
		t.Fatalf("source = %q, want %q", src, SourceNewestCheckpoint)
	}
	if st.Ops() != 0 {
		t.Fatalf("archive touched %d times with a clean local checkpoint", st.Ops())
	}
}

func TestArchiveCheckpointLadderSurvivesDownArchive(t *testing.T) {
	inner, err := NewDirStore(filepath.Join(t.TempDir(), "arch"))
	if err != nil {
		t.Fatal(err)
	}
	st := NewFaultStore(inner, StoreUnavailable, 1, StoreSticky())
	h, err := Ladder{Path: t.TempDir(), Store: st}.Recover()
	if err != nil {
		t.Fatalf("a down archive must degrade to full replay, not fail: %v", err)
	}
	if h.Checkpoint != nil || h.Rung != SourceFullReplay {
		t.Fatalf("cp=%v src=%q, want nil/%q", h.Checkpoint, h.Rung, SourceFullReplay)
	}
}

// sealedSegments writes a segmented log with three sealed segments plus
// an active tail and returns the dir and the full record set.
func sealedSegments(t *testing.T) (string, []Record) {
	t.Helper()
	dir := t.TempDir()
	l, err := OpenSegmentedLog(dir, SegmentMaxRecords(3))
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 10; i++ {
		rec := seqRecord("i1", i)
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, want
}

func TestArchiveRepairSegmentsStoreFetchesMissingAndDamaged(t *testing.T) {
	dir, want := sealedSegments(t)
	st, err := NewDirStore(filepath.Join(t.TempDir(), "arch"))
	if err != nil {
		t.Fatal(err)
	}
	// Archive every sealed segment, then damage the local copies: delete
	// segment 1 outright and corrupt a record in segment 2.
	for _, name := range []string{"wal-000001.seg", "wal-000002.seg"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(dir, "wal-000001.seg")); err != nil {
		t.Fatal(err)
	}
	seg2 := filepath.Join(dir, "wal-000002.seg")
	data, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40
	if err := os.WriteFile(seg2, data, 0o666); err != nil {
		t.Fatal(err)
	}

	fetches := obs.Default.Counter("recover.archive_fetches").Value()
	h, err := Ladder{Path: dir, Store: st}.Recover()
	if err != nil {
		t.Fatal(err)
	}
	got, dropped := h.Tail, h.Torn
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0 (archived copies are clean)", dropped)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !recordsEqual(want[i], got[i]) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, want[i], got[i])
		}
	}
	if d := obs.Default.Counter("recover.archive_fetches").Value() - fetches; d != 2 {
		t.Fatalf("archive_fetches delta = %d, want 2", d)
	}
}

func TestArchiveRepairSegmentsStoreRejectsCorruptBlob(t *testing.T) {
	dir, want := sealedSegments(t)
	st, err := NewDirStore(filepath.Join(t.TempDir(), "arch"))
	if err != nil {
		t.Fatal(err)
	}
	// The archived copy of segment 2 is itself corrupt; the local copy is
	// clean, so repair must prefer it and never import the bad blob.
	data, err := os.ReadFile(filepath.Join(dir, "wal-000002.seg"))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40
	if err := st.Put("wal-000002.seg", corrupt); err != nil {
		t.Fatal(err)
	}
	h, err := Ladder{Path: dir, Store: st}.Recover()
	if err != nil || h.Torn != 0 {
		t.Fatalf("repair: %+v err=%v", h, err)
	}
	if got := h.Tail; len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}

	// Now lose the local copy too: a corrupt archived blob with no local
	// file is unrecoverable for that segment and must be a hard error.
	if err := os.Remove(filepath.Join(dir, "wal-000002.seg")); err != nil {
		t.Fatal(err)
	}
	if _, err := (Ladder{Path: dir, Store: st}).Recover(); err == nil {
		t.Fatal("missing local + corrupt archived blob accepted")
	}
}

func TestArchiveGatedPruneKeepsUnverified(t *testing.T) {
	dir, _ := sealedSegments(t)
	l, err := OpenSegmentedLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Only segment 1 is "archived": the eligibility gate must hold
	// segments 2 and 3 back even though the cover says they may go.
	removed, err := l.PruneEligible(3, func(s SegmentInfo) bool { return s.Index == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if s.Index == 1 {
			t.Fatal("verified segment 1 survived the prune")
		}
	}

	// Checkpoint prune honors the same gate.
	cdir := t.TempDir()
	for seq := 1; seq <= 4; seq++ {
		cp := BuildCheckpoint(nil, fleetHistory(), seq)
		cp.Seq = seq
		if _, err := WriteCheckpoint(cdir, cp); err != nil {
			t.Fatal(err)
		}
	}
	survivors, err := PruneCheckpointsEligible(cdir, 2, func(name string) bool {
		return name == fmt.Sprintf("ckpt-%06d.ckpt", 1) // only the oldest is archived
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seq 1 was prune-eligible and pruned; 2 is unverified so it stays;
	// 3 and 4 are the retained pair.
	if len(survivors) != 3 {
		t.Fatalf("survivors = %d, want 3: %+v", len(survivors), survivors)
	}
	wantSeq := []int{2, 3, 4}
	for i, ci := range survivors {
		if ci.Seq != wantSeq[i] {
			t.Fatalf("survivor %d seq = %d, want %d", i, ci.Seq, wantSeq[i])
		}
	}
}
