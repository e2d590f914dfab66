package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrLogClosed is returned by Append on a log that has been closed.
var ErrLogClosed = errors.New("wal: log closed")

// GroupCommitLog batches appends from many concurrent instances into a
// single framed write + one fsync per flush. Append and AppendBatch block
// until the batch containing their records is on stable storage, so the
// per-call durability contract is exactly FileLog-with-WithFsync — a nil
// return means the records survive any crash — while the fsync cost is
// shared by every record in the batch.
//
// Batching is leader-based with commit pipelining: the first appender
// into an open batch becomes its leader; while the previous batch's
// fsync is in flight the open batch keeps accumulating followers, so
// under load the batch size self-tunes to the fsync latency without any
// timer. GroupWindow adds an optional fixed accumulation window on top
// (useful when appenders are few and bursty); GroupMaxBatch bounds the
// batch size and cuts the window short when reached.
//
// The on-disk format is unchanged — batches carry exactly the frames the
// inner log would have written itself, in the inner log's format (text
// lines or binary frames) — so ReadFileTolerant / RepairFile recover a
// group-committed log exactly as a per-record one: a crash mid-flush
// tears at most the final record, and only records of the torn batch
// (none of which were acknowledged) can be lost. The E8 soak kills the
// server beneath the inner log (FaultCrash) inside and between batches.
//
// GroupCommitLog is safe for concurrent use.
type GroupCommitLog struct {
	inner    batchLog
	format   Format
	window   time.Duration
	maxBatch int

	mu       sync.Mutex // guards cur, closed, failed, lastHerd
	cur      *gcBatch
	closed   bool
	failed   error // first batch storage error; non-nil seals the log
	lastHerd int   // appenders that waited on the last committed batch (herd estimate)

	commitMu sync.Mutex // held while a batch's write+fsync is in flight

	batches      *obs.Counter   // wal.group.batches
	records      *obs.Counter   // wal.group.records
	batchRecords *obs.Histogram // wal.group.batch_records (size buckets)
	flushNs      *obs.Histogram // wal.group.flush_ns
}

// gcBatch is one open or in-flight batch. buf holds the framed bytes of
// every record admitted so far — taken from batchBufPool and returned
// after the flush, so steady-state batching reuses a small set of grown
// buffers instead of reallocating per batch; done is closed (after err
// is set) once the batch is durable or has failed.
type gcBatch struct {
	buf      []byte
	pooled   *[]byte       // pool token holding buf's backing array
	count    int           // records admitted
	waiters  int           // appenders blocked on done, the leader included
	full     chan struct{} // closed when count reaches maxBatch
	fullOnce sync.Once
	done     chan struct{}
	err      error
}

// framePool recycles per-call record encode buffers (GroupCommitLog
// frames records outside its batch lock so encoding never serializes
// appenders); batchBufPool recycles whole batch buffers.
var (
	framePool    = sync.Pool{New: func() any { return new([]byte) }}
	batchBufPool = sync.Pool{New: func() any { return new([]byte) }}
)

// GroupOption configures a GroupCommitLog.
type GroupOption func(*GroupCommitLog)

// GroupWindow makes each batch leader wait d for followers before
// committing. The default (0) relies on commit pipelining alone, which
// adds no latency when appenders are scarce; a nonzero window trades
// latency for larger batches.
func GroupWindow(d time.Duration) GroupOption {
	return func(l *GroupCommitLog) { l.window = d }
}

// GroupMaxBatch caps the records per batch (default 64). A full batch
// stops waiting for its window and commits immediately.
func GroupMaxBatch(n int) GroupOption {
	return func(l *GroupCommitLog) {
		if n > 0 {
			l.maxBatch = n
		}
	}
}

// GroupWithMetricsRegistry points the log's instrumentation at reg
// instead of obs.Default.
func GroupWithMetricsRegistry(reg *obs.Registry) GroupOption {
	return func(l *GroupCommitLog) { l.bindMetrics(reg) }
}

// batchLog is what group commit needs from its backing log: a durable
// batched write, fsync takeover, the record framing to batch in, and
// Close. FileLog and SegmentedLog both satisfy it.
type batchLog interface {
	writeBatch(data []byte, records int) error
	setFsync(on bool)
	recFormat() Format
	Close() error
}

// NewGroupCommitLog wraps inner, taking over its durability: inner's
// per-append fsync is disabled and every flush is synced at batch
// granularity instead. The caller must stop using inner directly and
// close the GroupCommitLog (not inner) when done.
func NewGroupCommitLog(inner *FileLog, opts ...GroupOption) *GroupCommitLog {
	return newGroupCommit(inner, opts)
}

// NewGroupCommitSegmented is NewGroupCommitLog over a SegmentedLog:
// batches amortize fsync exactly as with a FileLog, and the segmented
// inner log rotates only between batches, so a batch never spans segment
// files and a crash mid-flush still tears at most the active segment's
// tail.
func NewGroupCommitSegmented(inner *SegmentedLog, opts ...GroupOption) *GroupCommitLog {
	return newGroupCommit(inner, opts)
}

func newGroupCommit(inner batchLog, opts []GroupOption) *GroupCommitLog {
	inner.setFsync(false)
	l := &GroupCommitLog{inner: inner, format: inner.recFormat(), maxBatch: 64}
	l.bindMetrics(obs.Default)
	for _, o := range opts {
		o(l)
	}
	return l
}

func (l *GroupCommitLog) bindMetrics(reg *obs.Registry) {
	l.batches = reg.Counter("wal.group.batches")
	l.records = reg.Counter("wal.group.records")
	l.batchRecords = reg.SizeHistogram("wal.group.batch_records")
	l.flushNs = reg.Histogram("wal.group.flush_ns")
}

// Append implements Log: AppendBatch of one record.
func (l *GroupCommitLog) Append(rec Record) error {
	one := [1]Record{rec}
	return l.AppendBatch(one[:])
}

// AppendBatch admits recs to the open batch together, in order, as one
// waiter — what wal.AppendAll hands a navigation step's records to. It
// returns only after the batch containing them has been written and
// fsynced (nil), or has failed as a unit (the batch's error, ErrLogClosed
// after Close, ErrLogFailed wrapping the cause once a previous batch's
// write or fsync failed and sealed the log). A record that cannot
// be encoded fails the call before any of recs is admitted.
func (l *GroupCommitLog) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	// Encode outside the batch lock into a pooled scratch buffer so
	// framing cost never serializes concurrent appenders.
	bp := framePool.Get().(*[]byte)
	enc, err := encodeRecords((*bp)[:0], recs, l.format)
	var batch *gcBatch
	var leader bool
	if err == nil {
		batch, leader, err = l.admit(enc, len(recs))
	}
	*bp = enc[:0]
	framePool.Put(bp)
	if err != nil {
		return err
	}
	if leader {
		l.commit(batch)
	} else {
		<-batch.done
	}
	return batch.err
}

// admit copies the framed records of one appender into the open batch,
// opening one (and making the appender its leader) if there is none.
func (l *GroupCommitLog) admit(enc []byte, records int) (batch *gcBatch, leader bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.sealedErrLocked(); err != nil {
		return nil, false, err
	}
	leader = l.cur == nil
	if leader {
		pooled := batchBufPool.Get().(*[]byte)
		l.cur = &gcBatch{buf: (*pooled)[:0], pooled: pooled,
			full: make(chan struct{}), done: make(chan struct{})}
	}
	batch = l.cur
	batch.buf = append(batch.buf, enc...)
	batch.count += records
	batch.waiters++
	if batch.count >= l.maxBatch {
		batch.fullOnce.Do(func() { close(batch.full) })
	}
	return batch, leader, nil
}

// sealedErrLocked is the error every append to a log that no longer admits
// records returns — closed, or sealed by a failed batch — and nil while the
// log is open.
func (l *GroupCommitLog) sealedErrLocked() error {
	switch {
	case l.closed:
		return ErrLogClosed
	case l.failed != nil:
		return sealedErr(l.failed)
	}
	return nil
}

// herdWait bounds how long a leader waits for the appenders woken by the
// previous commit to rejoin (see commit). It must stay well under a disk
// sync (~100µs+) so the wait is always amortized by the fsync it saves.
const herdWait = 100 * time.Microsecond

// commit runs on the batch's leader. The batch stays open — followers
// keep piling in — until the previous batch's fsync releases commitMu
// (plus the optional window); only then is it detached and flushed.
func (l *GroupCommitLog) commit(batch *gcBatch) {
	if l.window > 0 {
		t := time.NewTimer(l.window)
		select {
		case <-t.C:
		case <-batch.full:
			t.Stop()
		}
	}
	l.commitMu.Lock()

	// Collect the herd: the previous batch's waiters wake only after it
	// releases commitMu, so without this they would always miss the batch
	// now being committed and batch sizes would never grow past the
	// handful of appenders that happened to arrive mid-sync. Wait — by
	// yielding, bounded well under one disk sync — until as many appenders
	// as the last batch released have rejoined. The herd is counted in
	// appenders, not records: one AppendBatch caller is one waiter however
	// many records it brings, so a lone sequential appender (lastHerd <= 1)
	// skips the wait entirely.
	l.mu.Lock()
	want := l.lastHerd
	l.mu.Unlock()
	if want > 1 {
		deadline := time.Now().Add(herdWait)
		for {
			l.mu.Lock()
			herd, full := batch.waiters >= want, batch.count >= l.maxBatch
			l.mu.Unlock()
			if herd || full || !time.Now().Before(deadline) {
				break
			}
			runtime.Gosched()
		}
	}

	l.mu.Lock()
	l.cur = nil // later appends start a new batch behind this commit
	l.lastHerd = batch.waiters
	l.mu.Unlock()

	start := time.Now()
	batch.err = l.inner.writeBatch(batch.buf, batch.count)
	if batch.err != nil {
		// A batch whose write or fsync failed must fail every append it
		// carries — and seal the log: a later batch could sync fine while
		// this batch's bytes were dropped from the page cache, which
		// would ack records across a hole (acked-append loss on
		// recovery). See ErrLogFailed.
		l.mu.Lock()
		if l.failed == nil {
			l.failed = batch.err
		}
		l.mu.Unlock()
	} else {
		dur := time.Since(start).Nanoseconds()
		l.flushNs.Observe(dur)
		l.batches.Inc()
		l.records.Add(int64(batch.count))
		l.batchRecords.Observe(int64(batch.count))
		if obs.DefaultBus.Active() {
			obs.DefaultBus.Publish(obs.Event{Kind: obs.EvWalFlush, N: int64(batch.count), DurNs: dur})
		}
	}
	l.commitMu.Unlock()
	// The batch's bytes are on disk (or abandoned); recycle the buffer
	// before waking the followers, which only read batch.err.
	pooled := batch.pooled
	*pooled = batch.buf[:0]
	batch.buf, batch.pooled = nil, nil
	batchBufPool.Put(pooled)
	close(batch.done)
}

// Close drains the pending batch (hastening any window wait), then
// flushes, syncs and closes the underlying file. Appends issued after
// Close return ErrLogClosed. Close is idempotent.
func (l *GroupCommitLog) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	cur := l.cur
	l.mu.Unlock()
	if cur != nil {
		cur.fullOnce.Do(func() { close(cur.full) })
		<-cur.done
	}
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	return l.inner.Close()
}

// writeBatch appends pre-framed, newline-terminated lines in one write
// and makes them durable with a single flush+Sync, counting records
// appends and bytes as if each line had been appended individually.
// GroupCommitLog uses it to amortize fsync across a batch.
func (l *FileLog) writeBatch(data []byte, records int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return sealedErr(l.failed)
	}
	if _, err := l.w.Write(data); err != nil {
		return l.sealLocked(fmt.Errorf("wal: %w", err))
	}
	start := time.Now()
	if err := l.w.Flush(); err != nil {
		return l.sealLocked(fmt.Errorf("wal: %w", err))
	}
	if err := l.f.Sync(); err != nil {
		// The batch reached the file but its fsync failed: the kernel may
		// have dropped the dirty pages, so none of the batch's records may
		// be acknowledged — and no later batch either (fsync-gate).
		return l.sealLocked(fmt.Errorf("wal: %w", err))
	}
	l.fsyncNs.ObserveSince(start)
	l.appends.Add(int64(records))
	l.bytes.Add(int64(len(data)))
	return nil
}
