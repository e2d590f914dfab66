package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// FS is the filesystem seam beneath the write paths of FileLog,
// SegmentedLog and WriteCheckpoint. Production code uses OSFS; fault
// tests substitute a FaultFS to inject storage errors at scheduled
// operation counts. The seam deliberately covers only the operations the
// WAL's durability argument depends on — creating files, writing and
// syncing them, and the atomic rename of a checkpoint — so a fault
// schedule enumerating FS operations enumerates exactly the points where
// a disk can betray the log.
type FS interface {
	// Create creates (or truncates) the named file for writing.
	Create(path string) (File, error)
	// Rename atomically replaces newpath with oldpath (checkpoint
	// publication).
	Rename(oldpath, newpath string) error
}

// File is the writable handle an FS hands out: sequential writes, an
// fsync barrier, and close. *os.File satisfies the same shape; faultFile
// wraps it with injection.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Close closes the handle.
	Close() error
}

// OSFS is the real filesystem. The zero value is ready to use and is the
// default FS of every log.
type OSFS struct{}

// Create implements FS.
func (OSFS) Create(path string) (File, error) { return os.Create(path) }

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Typed storage-fault sentinels. FaultFS returns them (wrapped) from the
// scheduled operation; the log layers above seal themselves with
// ErrLogFailed once any of them — or any real storage error — surfaces.
var (
	// ErrDiskIO is the injected equivalent of EIO: a write that the
	// device rejected outright.
	ErrDiskIO = errors.New("wal: injected I/O error (EIO)")
	// ErrDiskFull is the injected equivalent of ENOSPC: a write refused
	// for lack of space.
	ErrDiskFull = errors.New("wal: injected disk full (ENOSPC)")
	// ErrFsyncFailed is an fsync that returned an error after the write
	// itself succeeded — the fsync-gate case: the kernel may have dropped
	// the dirty pages, so the data must be treated as lost even though a
	// later fsync would "succeed".
	ErrFsyncFailed = errors.New("wal: injected fsync failure")
)

// ErrLogFailed marks a log sealed after a storage error. Once any write
// or sync fails, the log refuses every subsequent append with an error
// wrapping ErrLogFailed: acknowledging later records while earlier bytes
// may have been dropped from the page cache would convert one transient
// fault into silent mid-log corruption (acked-append loss on recovery).
// The engine reacts by quiescing affected instances to "failed" with the
// cause; the operator restarts onto a healthy volume and recovers.
var ErrLogFailed = errors.New("wal: log failed")

// FaultKind selects which operation a FaultFS fails and with which
// sentinel.
type FaultKind int

// The storage faults a FaultFS can inject.
const (
	// FaultEIO fails a Write with ErrDiskIO.
	FaultEIO FaultKind = iota
	// FaultENOSPC fails a Write with ErrDiskFull.
	FaultENOSPC
	// FaultFsync fails a Sync with ErrFsyncFailed after the preceding
	// writes succeeded.
	FaultFsync
	// FaultCrash kills the server beneath the log: failAt counts bytes, not
	// operations. The Write that would cross it persists the bytes up to it
	// and fails with ErrCrash, and so does every Create, Write, Sync and
	// Rename after that — a dead process rotates no segment and publishes
	// no checkpoint. What the crash leaves is a byte prefix of what the run
	// would have written, across its files in write order.
	FaultCrash
)

// String names the fault for reports.
func (k FaultKind) String() string {
	switch k {
	case FaultEIO:
		return "EIO"
	case FaultENOSPC:
		return "ENOSPC"
	case FaultFsync:
		return "fsync-fail"
	case FaultCrash:
		return "crash"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultFS wraps a real filesystem and injects one scheduled storage
// fault. Every Write and Sync on files created through it increments a
// shared operation counter; the first operation at or past FailAt whose
// type matches the fault kind returns the kind's sentinel instead of
// touching the disk (for Sync faults the write itself has already
// happened — the fsync-gate shape). The fault fires once by default: the
// "disk" recovers afterwards, which is exactly the case where an unsealed
// log would resume acking over a hole. FailAt <= 0 injects nothing and
// turns the FaultFS into a pure operation counter, which chaos sweeps use
// to size their schedules.
//
// A FaultCrash is scheduled in bytes: a crash sweep runs its workload once
// crash-free and kills the rerun at one of the FrameEnds of what it wrote
// (clean) or between two (torn). Under fsync or group commit every append
// reaches the FS, so the crash surfaces in the append that hit it.
//
// FaultFS is safe for concurrent use.
type FaultFS struct {
	inner FS

	mu     sync.Mutex
	kind   FaultKind
	failAt int64
	sticky bool
	ops    int64
	bytes  int64 // written so far; FaultCrash only
	fired  bool
}

// FaultOption configures a FaultFS.
type FaultOption func(*FaultFS)

// faultSticky makes every matching operation from the scheduled one
// onward fail, modeling a disk that stays broken rather than a transient
// fault.
func faultSticky() FaultOption {
	return func(fs *FaultFS) { fs.sticky = true }
}

// NewFaultFS returns a FaultFS over the real filesystem that fails the
// first kind-matching operation at or past the failAt-th FS operation
// (1-based) — for FaultCrash, the Write that crosses byte failAt. failAt
// <= 0 never fails (count-only mode).
func NewFaultFS(kind FaultKind, failAt int64, opts ...FaultOption) *FaultFS {
	fs := &FaultFS{inner: OSFS{}, kind: kind, failAt: failAt}
	for _, o := range opts {
		o(fs)
	}
	return fs
}

// Ops reports how many Write/Sync operations have passed through so far.
func (fs *FaultFS) Ops() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// Fired reports whether the scheduled fault has been injected.
func (fs *FaultFS) Fired() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.fired
}

// Create implements FS.
func (fs *FaultFS) Create(path string) (File, error) {
	if fs.kind == FaultCrash && fs.Fired() {
		return nil, ErrCrash
	}
	f, err := fs.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, f: f}, nil
}

// Rename implements FS.
func (fs *FaultFS) Rename(oldpath, newpath string) error {
	if fs.kind == FaultCrash && fs.Fired() {
		return ErrCrash
	}
	return fs.inner.Rename(oldpath, newpath)
}

// step counts one operation — a Sync, or a Write of n bytes — and decides
// whether it is the scheduled fault. It returns how many of the n bytes
// reach the file: all, none under an injected error, the ones below the
// crash byte under a crash.
func (fs *FaultFS) step(isSync bool, n int) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.ops++
	if fs.kind == FaultCrash {
		if fs.fired {
			return 0, ErrCrash
		}
		if fs.failAt <= 0 || fs.bytes+int64(n) <= fs.failAt {
			fs.bytes += int64(n)
			return n, nil
		}
		n = int(fs.failAt - fs.bytes)
		fs.bytes, fs.fired = fs.failAt, true
		return n, ErrCrash
	}
	if fs.failAt <= 0 || fs.ops < fs.failAt {
		return n, nil
	}
	if fs.fired && !fs.sticky {
		return n, nil
	}
	wantSync := fs.kind == FaultFsync
	if isSync != wantSync {
		return n, nil
	}
	fs.fired = true
	switch fs.kind {
	case FaultEIO:
		return 0, ErrDiskIO
	case FaultENOSPC:
		return 0, ErrDiskFull
	default:
		return 0, ErrFsyncFailed
	}
}

// faultFile is a File whose Write/Sync consult the FaultFS schedule.
type faultFile struct {
	fs *FaultFS
	f  File
}

func (f *faultFile) Write(p []byte) (int, error) {
	keep, err := f.fs.step(false, len(p))
	if n, werr := f.f.Write(p[:keep]); werr != nil {
		return n, werr
	}
	return keep, err
}

func (f *faultFile) Sync() error {
	// The write already reached the file; only the barrier fails — the
	// fsync-gate shape (data possibly dropped from the page cache).
	if _, err := f.fs.step(true, 0); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *faultFile) Close() error { return f.f.Close() }

// FrameEnds returns the offset at which every whole frame of a log file —
// or of a segment directory, its files end to end in index order — ends,
// file headers counted: the crash bytes of a sweep (CrashCut).
func FrameEnds(path string) ([]int64, error) {
	segs, err := ListSegments(path)
	if err != nil { // not a directory: one log file
		segs = []SegmentInfo{{Path: path}}
	}
	s := newScan("")
	defer s.release()
	s.ends = []int64{}
	base := int64(0)
	for _, seg := range segs {
		from := len(s.ends)
		validLen, dropped, err := s.file(seg.Path)
		if err != nil {
			return nil, err
		}
		for i := from; i < len(s.ends); i++ {
			s.ends[i] += base
		}
		base += int64(validLen + dropped)
	}
	return s.ends, nil
}

// CrashCut returns the byte at which a FaultCrash kills a rerun of the run
// whose frames end at ends after its first k records (0 <= k <= len(ends)):
// record k's end — a clean crash, record k+1 never reaches the file — or,
// torn, half of record k+1 plus ten bytes, short of its last two (a text
// frame's last byte is its newline, and a line that lacks only that still
// parses). Past the last record there is nothing to tear.
func CrashCut(ends []int64, k int, torn bool) int64 {
	var b int64
	if k > 0 {
		b = ends[k-1]
	}
	if torn && k < len(ends) {
		n := ends[k] - b - 1
		b += min(n/2+10, n-1)
	}
	return b
}
