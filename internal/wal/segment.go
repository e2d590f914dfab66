package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/obs"
)

// SegmentInfo identifies one on-disk segment file of a SegmentedLog.
// Indexes are dense and monotonically increasing; the file with the
// highest index is the active (append) segment, every lower index is
// sealed and immutable.
type SegmentInfo struct {
	Index int
	Path  string
}

// segmentMaxBytes rotates the active segment at 1 MiB, however few records.
const segmentMaxBytes = 1 << 20

// segLayout names segment files (and archived segment blobs) so lexical
// order equals index order.
const segLayout = "wal-%06d.seg"

func segPath(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf(segLayout, index))
}

// syncDir fsyncs a directory so a just-created or just-renamed file's
// directory entry is on stable storage (the standard crash-consistency
// step after creating segments or renaming checkpoints into place).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// SegmentedLog is a FileLog split across rotating segment files in one
// directory. Each segment uses the identical on-disk record format
// (text-framed lines or, with SegmentFormat(FormatBinary), headered
// binary frames — the format travels in each file's header, so a
// directory may mix formats across process generations), and RepairFile
// works per segment verbatim; a crash can tear at most the tail of the
// highest-index (active) segment, because rotation seals a segment with a
// flush+fsync before the next one is created. Rotation happens when the
// active segment reaches SegmentMaxRecords records or 1 MiB. Sealed
// segments are immutable, which is what lets a background checkpointer read
// and later delete them while appenders keep writing — see Checkpoint and
// engine.Checkpointer.
//
// SegmentedLog is safe for concurrent use and implements Log. It also
// serves as the inner log of a GroupCommitLog (NewGroupCommitSegmented),
// in which case rotation happens only at batch boundaries, keeping every
// batch inside a single segment.
type SegmentedLog struct {
	mu         sync.Mutex
	dir        string
	fs         FS
	fsync      bool
	format     Format
	maxRecords int
	reg        *obs.Registry
	enc        []byte // record encode scratch, reused under mu
	failed     error  // first storage error; non-nil seals the log

	active        *FileLog
	activeIndex   int
	activeRecords int
	activeBytes   int64
	sealed        []SegmentInfo

	segGauge  *obs.Gauge   // wal.segments.active
	rotations *obs.Counter // wal.segments.rotations
}

// SegmentOption configures a SegmentedLog.
type SegmentOption func(*SegmentedLog)

// SegmentMaxRecords rotates the active segment after n records
// (default 1024).
func SegmentMaxRecords(n int) SegmentOption {
	return func(l *SegmentedLog) {
		if n > 0 {
			l.maxRecords = n
		}
	}
}

// SegmentFsync makes every Append durable before it returns, like
// FileLog's WithFsync.
func SegmentFsync() SegmentOption {
	return func(l *SegmentedLog) { l.fsync = true }
}

// SegmentMetricsRegistry points the log's instrumentation at reg instead
// of obs.Default.
func SegmentMetricsRegistry(reg *obs.Registry) SegmentOption {
	return func(l *SegmentedLog) { l.reg = reg }
}

// SegmentFS substitutes the filesystem beneath every segment file
// (default OSFS); fault tests pass a FaultFS.
func SegmentFS(fs FS) SegmentOption {
	return func(l *SegmentedLog) { l.fs = fs }
}

// SegmentFormat selects the record framing of newly created segments
// (default FormatText). Existing segments keep whatever format their
// header declares; readers sniff per file, so reopening a text-era
// directory with FormatBinary yields a valid mixed-format history.
func SegmentFormat(f Format) SegmentOption {
	return func(l *SegmentedLog) { l.format = f }
}

// OpenSegmentedLog opens (creating if needed) a segment directory and
// starts a fresh active segment after any existing ones. Existing
// segments are never appended to — a reopened log treats them all as
// sealed, so a previous process's torn tail stays confined to a file
// that per-segment repair can truncate.
func OpenSegmentedLog(dir string, opts ...SegmentOption) (*SegmentedLog, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &SegmentedLog{dir: dir, fs: OSFS{}, maxRecords: 1024, reg: obs.Default}
	for _, o := range opts {
		o(l)
	}
	l.segGauge = l.reg.Gauge("wal.segments.active")
	l.rotations = l.reg.Counter("wal.segments.rotations")
	segs, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	l.sealed = segs
	next := 1
	if len(segs) > 0 {
		next = segs[len(segs)-1].Index + 1
	}
	if err := l.openSegmentLocked(next); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *SegmentedLog) openSegmentLocked(index int) error {
	opts := []FileOption{WithMetricsRegistry(l.reg), WithFS(l.fs), WithFormat(l.format)}
	if l.fsync {
		opts = append(opts, WithFsync())
	}
	f, err := OpenFileLog(segPath(l.dir, index), opts...)
	if err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.active = f
	l.activeIndex = index
	l.activeRecords = 0
	l.activeBytes = 0
	l.segGauge.Set(int64(len(l.sealed) + 1))
	return nil
}

// sealLocked latches the first storage error; every later operation on
// the sealed log returns ErrLogFailed wrapping it (see ErrLogFailed).
func (l *SegmentedLog) sealLocked(err error) error {
	if l.failed == nil {
		l.failed = err
	}
	return err
}

// Failed reports the storage error that sealed the log, or nil.
func (l *SegmentedLog) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Append implements Log: AppendBatch of one record.
func (l *SegmentedLog) Append(rec Record) error {
	one := [1]Record{rec}
	return l.AppendBatch(one[:])
}

// AppendBatch appends recs in order to the active segment as one write
// (one fsync with SegmentFsync), rotating afterwards if the segment
// crossed a threshold — so a batch never spans segments. Records are
// encoded into a scratch buffer the log owns, so the steady-state binary
// append path allocates nothing.
func (l *SegmentedLog) AppendBatch(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return ErrLogClosed
	}
	if l.failed != nil {
		return sealedErr(l.failed)
	}
	var err error
	if l.enc, err = encodeRecords(l.enc[:0], recs, l.format); err != nil {
		return err
	}
	if err := l.active.appendEncoded(l.enc, len(recs)); err != nil {
		return l.sealLocked(err)
	}
	l.activeRecords += len(recs)
	l.activeBytes += int64(len(l.enc))
	return l.maybeRotateLocked()
}

// recFormat reports the framing of newly created segments (immutable
// after open).
func (l *SegmentedLog) recFormat() Format { return l.format }

// writeBatch appends a pre-framed batch to the active segment in one
// durable write (GroupCommitLog's flush path), rotating afterwards if a
// threshold was crossed — so a batch never spans segments.
func (l *SegmentedLog) writeBatch(data []byte, records int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return ErrLogClosed
	}
	if l.failed != nil {
		return sealedErr(l.failed)
	}
	if err := l.active.writeBatch(data, records); err != nil {
		return l.sealLocked(err)
	}
	l.activeRecords += records
	l.activeBytes += int64(len(data))
	return l.maybeRotateLocked()
}

// setFsync flips per-append fsync on the log and its active segment;
// GroupCommitLog uses it to take over durability at batch granularity.
func (l *SegmentedLog) setFsync(on bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fsync = on
	if l.active != nil {
		l.active.setFsync(on)
	}
}

func (l *SegmentedLog) maybeRotateLocked() error {
	if l.activeRecords >= l.maxRecords || l.activeBytes >= segmentMaxBytes {
		return l.rotateLocked()
	}
	return nil
}

// Rotate seals the active segment (flush + fsync + close) and opens the
// next one. A rotation of an empty active segment is a no-op. The engine's
// Checkpointer rotates before checkpointing so the records it wants to
// cover sit in sealed, immutable files.
func (l *SegmentedLog) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return ErrLogClosed
	}
	return l.rotateLocked()
}

func (l *SegmentedLog) rotateLocked() error {
	if l.activeRecords == 0 {
		return nil
	}
	if err := l.active.Close(); err != nil {
		// A rotation seal (flush+fsync) that fails leaves records of the
		// closing segment undurable — same fsync-gate stakes as a failed
		// append, so the whole log seals.
		return l.sealLocked(err)
	}
	l.sealed = append(l.sealed, SegmentInfo{Index: l.activeIndex, Path: segPath(l.dir, l.activeIndex)})
	l.rotations.Inc()
	if obs.DefaultBus.Active() {
		obs.DefaultBus.Publish(obs.Event{Kind: obs.EvWalRotate, N: int64(l.activeIndex)})
	}
	return l.openSegmentLocked(l.activeIndex + 1)
}

// Close flushes, syncs and closes the active segment. Further appends
// return ErrLogClosed. Close is idempotent.
func (l *SegmentedLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	err := l.active.Close()
	l.active = nil
	if l.failed != nil {
		return sealedErr(l.failed)
	}
	if err != nil {
		l.sealLocked(err)
		return sealedErr(l.failed)
	}
	return nil
}

// Dir returns the segment directory.
func (l *SegmentedLog) Dir() string { return l.dir }

// SealedSegments returns a snapshot of the sealed (immutable) segments in
// index order.
func (l *SegmentedLog) SealedSegments() []SegmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]SegmentInfo(nil), l.sealed...)
}

// ActiveRecords reports how many records the active segment holds — the
// record-count trigger input for engine.Checkpointer.
func (l *SegmentedLog) ActiveRecords() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.activeRecords
}

// PruneEligible deletes sealed segments with index <= upto — the
// retention pass run after a checkpoint has made them redundant — and
// returns how many files were removed. A covered segment is deleted only
// when eligible returns true — the archive gate, where eligibility means
// "archived copy CRC-verified". Ineligible segments stay sealed on disk
// (local retention grows while the archive is degraded) and are
// re-offered on the next pass. A nil predicate admits everything.
func (l *SegmentedLog) PruneEligible(upto int, eligible func(SegmentInfo) bool) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	kept := l.sealed[:0]
	for _, s := range l.sealed {
		if s.Index <= upto && (eligible == nil || eligible(s)) {
			if err := os.Remove(s.Path); err != nil && !os.IsNotExist(err) {
				return removed, fmt.Errorf("wal: %w", err)
			}
			removed++
			continue
		}
		kept = append(kept, s)
	}
	l.sealed = kept
	if removed > 0 {
		if err := syncDir(l.dir); err != nil {
			return removed, err
		}
	}
	active := 0
	if l.active != nil {
		active = 1
	}
	l.segGauge.Set(int64(len(l.sealed) + active))
	return removed, nil
}

// ListSegments lists the segment files present in dir, in index order.
func ListSegments(dir string) ([]SegmentInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []SegmentInfo
	for _, ent := range ents {
		if idx, ok := parseIndex(ent.Name(), segLayout); ok {
			out = append(out, SegmentInfo{Index: idx, Path: filepath.Join(dir, ent.Name())})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out, nil
}
