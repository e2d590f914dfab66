package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Store is the archive seam: a flat namespace of sealed, immutable blobs
// keyed by file base name ("wal-000001.seg", "ckpt-000002.ckpt"). The
// Archiver copies sealed segments and completed checkpoints into a Store
// and the recovery ladder's archive rung fetches them back. The
// interface is deliberately minimal — put/get/list/delete over whole
// blobs — so an S3-style object store, an embedded KV, or a plain
// directory (DirStore) all fit behind it, and a FaultStore can enumerate
// every operation the archival durability argument depends on.
//
// Contract: blobs are written at most once per name with identical
// content (sealed files never change), so Put may overwrite freely; Get
// must return exactly the bytes of the newest successful Put. A Store
// is allowed to be slow, flaky, or down — every caller treats errors as
// retryable degradation, never as data loss.
type Store interface {
	// Put stores data under name, replacing any existing blob.
	Put(name string, data []byte) error
	// Get returns the blob stored under name, or ErrStoreMiss.
	Get(name string) ([]byte, error)
	// List returns the stored blob names in lexical order.
	List() ([]string, error)
	// Delete removes the named blob; deleting an absent blob is a no-op.
	Delete(name string) error
}

// Typed archive-fault sentinels. FaultStore returns them from scheduled
// operations; DirStore maps a missing blob to ErrStoreMiss. Callers
// distinguish a miss (fall through the recovery ladder) from
// unavailability (retry/back off/trip the breaker).
var (
	// ErrStoreMiss is returned by Get for a name that holds no blob.
	ErrStoreMiss = errors.New("wal: archive blob not found")
	// ErrStoreUnavailable is the injected equivalent of a connection
	// refusal: the backend rejected the operation outright.
	ErrStoreUnavailable = errors.New("wal: archive unavailable")
	// ErrStoreTimeout is an archive operation that exceeded its deadline;
	// whether the backend applied it is unknown (puts are idempotent, so
	// the archiver simply retries).
	ErrStoreTimeout = errors.New("wal: archive operation timed out")
)

// DirStore is a Store over a local directory — the zero-config default
// backend for `wfrun -archive DIR`. Put is atomic (tmp + fsync + rename
// + directory fsync, the same publication discipline as WriteCheckpoint)
// so a crash mid-Put never leaves a visible torn blob.
type DirStore struct {
	dir string
}

// NewDirStore opens (creating if needed) a directory-backed store.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("wal: archive dir: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the backing directory.
func (s *DirStore) Dir() string { return s.dir }

// Put implements Store with an atomic write-then-rename.
func (s *DirStore) Put(name string, data []byte) error {
	path := filepath.Join(s.dir, name)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: archive put: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: archive put: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: archive put: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: archive put: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: archive put: %w", err)
	}
	return syncDir(s.dir)
}

// Get implements Store.
func (s *DirStore) Get(name string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrStoreMiss, name)
	}
	if err != nil {
		return nil, fmt.Errorf("wal: archive get: %w", err)
	}
	return data, nil
}

// List implements Store, ignoring temporaries left by a crashed Put.
func (s *DirStore) List() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: archive list: %w", err)
	}
	var out []string
	for _, ent := range ents {
		if ent.IsDir() || strings.HasSuffix(ent.Name(), ".tmp") {
			continue
		}
		out = append(out, ent.Name())
	}
	sort.Strings(out)
	return out, nil
}

// Delete implements Store.
func (s *DirStore) Delete(name string) error {
	if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("wal: archive delete: %w", err)
	}
	return nil
}

// StoreFaultKind selects which archive operation a FaultStore corrupts
// and how.
type StoreFaultKind int

// The archive faults a FaultStore can inject.
const (
	// StoreUnavailable fails any operation with ErrStoreUnavailable
	// without touching the inner store — the backend is down.
	StoreUnavailable StoreFaultKind = iota
	// StoreTimeout delays, then fails any operation with ErrStoreTimeout.
	// The inner store is not touched, modeling a request the backend
	// never saw (puts are idempotent, so retrying is always safe).
	StoreTimeout
	// StorePartialWrite makes a Put silently store a truncated blob and
	// report success — the fault CRC verification after upload exists to
	// catch.
	StorePartialWrite
	// StoreCorruptRead makes a Get return the blob with a flipped bit —
	// the fault fetch-time CRC verification exists to catch.
	StoreCorruptRead
)

// String names the fault for reports.
func (k StoreFaultKind) String() string {
	switch k {
	case StoreUnavailable:
		return "unavailable"
	case StoreTimeout:
		return "timeout"
	case StorePartialWrite:
		return "partial-write"
	case StoreCorruptRead:
		return "corrupt-read"
	default:
		return fmt.Sprintf("StoreFaultKind(%d)", int(k))
	}
}

// matches reports whether an operation class can carry this fault:
// unavailability and timeouts hit any operation, partial writes only a
// Put, corrupt reads only a Get.
func (k StoreFaultKind) matches(op opClass) bool {
	switch k {
	case StorePartialWrite:
		return op == storePut
	case StoreCorruptRead:
		return op == storeGet
	default:
		return true
	}
}

// FaultStore wraps a Store and injects one scheduled typed fault through
// the same schedule as a FaultFS: every Put/Get/List/Delete is one
// operation, and a matching one misbehaves. The default outage of one
// operation is a backend that recovers — exactly the case where an
// archiver must retry rather than give up; Outage(Forever) is a dead
// backend. failAt <= 0 injects nothing and turns the FaultStore into a
// pure operation counter, which the E12 sweep uses to size its fault
// schedules.
//
// FaultStore is safe for concurrent use.
type FaultStore struct {
	schedule
	inner Store
	kind  StoreFaultKind
}

// StoreTimeoutDelay sets how long a FaultStore's StoreTimeout fault stalls
// before returning ErrStoreTimeout (default 10ms — long enough to overlap
// an archiver's per-op deadline in tests, short enough not to slow soaks).
// A FaultFS has no stalling fault and ignores it.
func StoreTimeoutDelay(d time.Duration) FaultOption {
	return func(s *schedule) {
		if d > 0 {
			s.delay = d
		}
	}
}

// NewFaultStore returns a FaultStore over inner that fails the first
// kind-matching operation at or past the failAt-th store operation
// (1-based). failAt <= 0 never fails (count-only mode).
func NewFaultStore(inner Store, kind StoreFaultKind, failAt int64, opts ...FaultOption) *FaultStore {
	s := &FaultStore{inner: inner, kind: kind}
	s.delay = 10 * time.Millisecond
	s.init(failAt, opts)
	return s
}

// step counts one operation — what names it in errors — and decides
// whether it is the scheduled fault. An unavailable or timed-out backend
// fails it here; a partial write or a corrupt read is left to the caller,
// told by fire.
func (s *FaultStore) step(op opClass, what string) (fire bool, err error) {
	s.mu.Lock()
	fire = s.next(op, s.kind.matches(op))
	s.mu.Unlock()
	switch {
	case fire && s.kind == StoreUnavailable:
		return true, fmt.Errorf("%w: %s", ErrStoreUnavailable, what)
	case fire && s.kind == StoreTimeout:
		time.Sleep(s.delay)
		return true, fmt.Errorf("%w: %s", ErrStoreTimeout, what)
	}
	return fire, nil
}

// Put implements Store.
func (s *FaultStore) Put(name string, data []byte) error {
	fire, err := s.step(storePut, "put "+name)
	switch {
	case err != nil:
		return err
	case fire:
		// The nasty case: the backend acked a truncated object. Only
		// read-back verification can catch this.
		return s.inner.Put(name, data[:len(data)/2])
	}
	return s.inner.Put(name, data)
}

// Get implements Store.
func (s *FaultStore) Get(name string) ([]byte, error) {
	fire, err := s.step(storeGet, "get "+name)
	if err != nil {
		return nil, err
	}
	data, err := s.inner.Get(name)
	if fire && err == nil && len(data) > 0 {
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x40
	}
	return data, err
}

// List implements Store.
func (s *FaultStore) List() ([]string, error) {
	if _, err := s.step(storeOther, "list"); err != nil {
		return nil, err
	}
	return s.inner.List()
}

// Delete implements Store.
func (s *FaultStore) Delete(name string) error {
	if _, err := s.step(storeOther, "delete "+name); err != nil {
		return err
	}
	return s.inner.Delete(name)
}
