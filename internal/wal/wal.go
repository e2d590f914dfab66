// Package wal implements the persistence substrate behind the paper's
// §3.3 claim that "in most WFMSs the execution of a process is persistent
// in the sense that forward recovery is always guaranteed". The engine
// appends a record whenever an instance is created, an activity completes
// (with its output container), or the instance finishes. After a crash the
// engine re-navigates the instance deterministically, consuming logged
// outputs instead of re-invoking the corresponding programs; activities
// that had started but never logged a completion are re-executed from the
// beginning — the paper's explicit caveat about non-failure-atomic
// activities.
//
// Two log implementations are provided: an in-memory log with optional
// crash injection (for recovery tests) and a file-backed log.
//
// # Durability
//
// FileLog frames every record as "crc8hex json\n": a CRC-32C checksum over
// the JSON body detects torn writes and bit rot on replay. Appends are
// buffered; with the WithFsync option every Append or AppendBatch call
// flushes the buffer and calls File.Sync before it returns, so what the
// engine handed over at a write-ahead barrier is on stable storage before
// the action it must precede (the classic WAL contract — slower, but a
// kernel or power failure can lose at most the records being written).
// Without fsync a crash can lose the buffered tail; either way Close
// flushes and syncs. Recovery (RepairFile, and the Ladder that calls it)
// tolerates a torn or corrupt *final* record — the signature a
// crash mid-append leaves behind — by truncating to the valid prefix;
// corruption in the middle of the log (valid records after a bad line) is
// reported as an error because it means lost history, not a torn tail.
// A FaultFS beneath the log (WithFS) kills the server at a scripted byte,
// so the whole story is testable on the path production takes (see the
// crash-point soak experiment E7 in internal/sim).
package wal

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
)

// RecordType discriminates log records.
type RecordType string

// The record types appended by the engine.
const (
	// RecCreated opens an instance: Process and Values (the input
	// container) are set.
	RecCreated RecordType = "created"
	// RecFinishedActivity records the completion of one activity
	// execution: Path, Iter and Values (the output container snapshot).
	RecFinishedActivity RecordType = "activity"
	// RecStartedActivity records that an activity began executing. It
	// carries no output; a started record without a matching finished
	// record marks a half-executed activity that recovery re-runs.
	RecStartedActivity RecordType = "started"
	// RecDone closes an instance: Values is the process output container.
	RecDone RecordType = "done"
)

// Record is one WAL entry.
type Record struct {
	Type     RecordType
	Instance string
	Process  string // RecCreated only
	Path     string // activity path within the instance
	Iter     int    // exit-condition iteration of the activity execution
	Values   Values
}

// Values is the data container a record carries, flattened: Vals[i] is the
// value of member Keys[i]; the zero Values is "no members". The engine
// fills it straight from a container — Keys is the layout's sorted path
// slice, shared by every record of the type and never written through,
// Vals one copy of the slots — and the encoders write members in that
// order, so one run always writes the same bytes. The decoders accept any
// order and return Keys sorted and unique; of a member a file names twice
// the last occurrence wins, as it did when records carried a map.
type Values struct {
	Keys []string
	Vals []expr.Value
}

// ValuesOf returns the members of m in sorted key order, the zero Values
// for an empty map: the form the decoders return.
func ValuesOf(m map[string]expr.Value) Values {
	var v Values
	for k := range m {
		v.Keys = append(v.Keys, k)
	}
	slices.Sort(v.Keys)
	for _, k := range v.Keys {
		v.Vals = append(v.Vals, m[k])
	}
	return v
}

// Len reports the number of members.
func (v Values) Len() int { return len(v.Keys) }

// Get returns the value of the named member.
func (v Values) Get(key string) (expr.Value, bool) {
	if i := slices.Index(v.Keys, key); i >= 0 {
		return v.Vals[i], true
	}
	return expr.Null, false
}

// Map returns the members as a fresh map; of a repeated key the last wins.
func (v Values) Map() map[string]expr.Value {
	m := make(map[string]expr.Value, len(v.Keys))
	for i, k := range v.Keys {
		m[k] = v.Vals[i]
	}
	return m
}

// Log is an append-only record sink.
type Log interface {
	Append(rec Record) error
}

// AppendAll appends recs to log in order and returns once all of them are
// as durable as log makes an Append. A log with an AppendBatch method
// (FileLog, SegmentedLog, GroupCommitLog) takes them in one call — one
// write, one durable wait; any other Log (MemLog, an Append-only wrapper)
// gets one Append per record, stopping at the first error. Either way what
// reaches the log is a prefix of recs in order.
func AppendAll(log Log, recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	if b, ok := log.(interface{ AppendBatch([]Record) error }); ok {
		return b.AppendBatch(recs)
	}
	for i := range recs {
		if err := log.Append(recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ErrCrash is the injected death of the workflow server: MemLog returns it
// at its CrashAfter record, a FaultCrash FaultFS from the write that crosses
// its byte and from everything after. The engine treats it as a hard stop.
var ErrCrash = errors.New("wal: injected crash")

// MemLog is an in-memory log. CrashAfter > 0 makes the log return ErrCrash
// on the (CrashAfter+1)-th append, simulating a failure of the workflow
// server at that navigation point. MemLog is safe for concurrent use.
type MemLog struct {
	mu         sync.Mutex
	records    []Record
	CrashAfter int // 0 = never crash
}

// Append implements Log.
func (l *MemLog) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.CrashAfter > 0 && len(l.records) >= l.CrashAfter {
		return ErrCrash
	}
	l.records = append(l.records, cloneRecord(rec))
	return nil
}

// Records returns a copy of the appended records — what survives the
// "crash" and is handed to recovery.
func (l *MemLog) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.records))
	for i := range l.records {
		out[i] = cloneRecord(l.records[i])
	}
	return out
}

// Len reports the number of records appended so far.
func (l *MemLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// cloneRecord copies the record's values; Keys stay shared (see Values).
func cloneRecord(r Record) Record {
	r.Values.Vals = slices.Clone(r.Values.Vals)
	return r
}

// crcTable is the CRC-32C (Castagnoli) table used to frame file records.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameLine prefixes a marshaled record with its 8-hex-digit CRC-32C:
// "crc8hex json". The checksum covers the JSON body only.
func frameLine(body []byte) []byte {
	return appendTextFrame(make([]byte, 0, len(body)+9), body)
}

// appendTextFrame appends "crc8hex body" (no newline) to buf — frameLine
// without the allocation, for callers that reuse an encode buffer.
func appendTextFrame(buf, body []byte) []byte {
	const hexDigits = "0123456789abcdef"
	sum := crc32.Checksum(body, crcTable)
	for shift := 28; shift >= 0; shift -= 4 {
		buf = append(buf, hexDigits[(sum>>shift)&0xF])
	}
	buf = append(buf, ' ')
	return append(buf, body...)
}

// decodeCRC parses the 8-hex-digit checksum prefix of a framed line.
func decodeCRC(hexDigits []byte) (uint32, error) {
	var crc [4]byte
	if _, err := hex.Decode(crc[:], hexDigits); err != nil {
		return 0, errors.New("wal: malformed record checksum")
	}
	return uint32(crc[0])<<24 | uint32(crc[1])<<16 | uint32(crc[2])<<8 | uint32(crc[3]), nil
}

// crc32Checksum is the CRC-32C of a frame body.
func crc32Checksum(body []byte) uint32 { return crc32.Checksum(body, crcTable) }

// parseLine decodes one log line. Framed lines ("crc8hex json") are
// checksum-verified; legacy plain-JSON lines (first byte '{') are accepted
// unverified so pre-checksum logs stay readable.
func parseLine(line []byte) (Record, error) {
	if len(line) > 0 && line[0] == '{' {
		return unmarshal(line)
	}
	if len(line) < 10 || line[8] != ' ' {
		return Record{}, errors.New("wal: malformed record frame")
	}
	want, err := decodeCRC(line[:8])
	if err != nil {
		return Record{}, err
	}
	body := line[9:]
	if got := crc32Checksum(body); got != want {
		return Record{}, fmt.Errorf("wal: record checksum mismatch (want %08x, got %08x)", want, got)
	}
	return unmarshal(body)
}

// FileLog appends CRC-framed JSON-line records to a file. It is safe for
// concurrent use. Close flushes buffered data and syncs the file. Appends
// are counted (records and bytes) and fsync latency is histogrammed in
// the metrics registry — obs.Default unless WithMetricsRegistry redirects
// it; metric names are listed in DESIGN.md ("Observability").
type FileLog struct {
	mu     sync.Mutex
	fs     FS
	f      File
	w      *bufio.Writer
	fsync  bool
	format Format
	enc    []byte // record encode scratch, reused under mu (zero-alloc path)
	failed error  // first storage error; non-nil seals the log

	appends  *obs.Counter   // wal.file.appends
	bytes    *obs.Counter   // wal.file.bytes
	fsyncNs  *obs.Histogram // wal.fsync_ns
	failures *obs.Counter   // wal.failures
}

// FileOption configures a FileLog.
type FileOption func(*FileLog)

// WithFsync makes every Append and AppendBatch call flush the write buffer
// and fsync the file, so its records are on stable storage when it returns.
// Durable and slow; without it a crash can lose the buffered tail of the
// log (recovery then resumes from a shorter—but still consistent—prefix).
func WithFsync() FileOption {
	return func(l *FileLog) { l.fsync = true }
}

// WithMetricsRegistry points the log's instrumentation at reg instead of
// obs.Default.
func WithMetricsRegistry(reg *obs.Registry) FileOption {
	return func(l *FileLog) { l.bindMetrics(reg) }
}

// WithFS substitutes the filesystem beneath the log (default OSFS);
// fault tests pass a FaultFS to inject storage errors at scheduled
// operation counts.
func WithFS(fs FS) FileOption {
	return func(l *FileLog) { l.fs = fs }
}

// WithFormat selects the on-disk record framing (default FormatText).
// FormatBinary writes the magic file header at creation and frames every
// record as a length-prefixed CRC-32C binary frame; readers sniff the
// header, so mixed-format histories recover without configuration.
func WithFormat(f Format) FileOption {
	return func(l *FileLog) { l.format = f }
}

func (l *FileLog) bindMetrics(reg *obs.Registry) {
	l.appends = reg.Counter("wal.file.appends")
	l.bytes = reg.Counter("wal.file.bytes")
	l.fsyncNs = reg.Histogram("wal.fsync_ns")
	l.failures = reg.Counter("wal.failures")
}

// OpenFileLog creates (or truncates) a file-backed log.
func OpenFileLog(path string, opts ...FileOption) (*FileLog, error) {
	l := &FileLog{fs: OSFS{}}
	l.bindMetrics(obs.Default)
	for _, o := range opts {
		o(l)
	}
	f, err := l.fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	if l.format == FormatBinary {
		hdr := FileHeader(l.format)
		if _, err := l.w.Write(hdr); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.bytes.Add(int64(len(hdr)))
	}
	return l, nil
}

// sealLocked records the first storage error, counts it, and publishes a
// wal.failed event; the log is sealed from here on (see ErrLogFailed).
// It returns err so error paths can `return l.sealLocked(err)`.
func (l *FileLog) sealLocked(err error) error {
	if l.failed == nil {
		l.failed = err
		l.failures.Inc()
		if obs.DefaultBus.Active() {
			obs.DefaultBus.Publish(obs.Event{Kind: obs.EvWalFailed, Cause: err.Error()})
		}
	}
	return err
}

// sealedErr is the error every operation on a sealed log returns:
// ErrLogFailed wrapping the original cause.
func sealedErr(cause error) error {
	return fmt.Errorf("%w: %w", ErrLogFailed, cause)
}

// Failed reports the storage error that sealed the log, or nil.
func (l *FileLog) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Append implements Log: AppendBatch of one record.
func (l *FileLog) Append(rec Record) error {
	one := [1]Record{rec}
	return l.AppendBatch(one[:])
}

// AppendBatch appends recs in order as one write and, with WithFsync, one
// flush+fsync for all of them — what wal.AppendAll hands a navigation
// step's records to. The bytes are exactly what len(recs) Appends would
// have written. The records are encoded into a scratch buffer the log owns
// (reused under its mutex), so the steady-state binary append path with an
// idle event bus performs zero heap allocations — the hot path the B13
// gate holds at 0 allocs/op. A record that cannot be encoded fails the
// whole batch before anything is written.
func (l *FileLog) AppendBatch(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return sealedErr(l.failed)
	}
	var err error
	if l.enc, err = encodeRecords(l.enc[:0], recs, l.format); err != nil {
		return err
	}
	return l.appendEncodedLocked(l.enc, len(recs))
}

// encodeRecords appends the frames of recs, in order, to dst.
func encodeRecords(dst []byte, recs []Record, f Format) ([]byte, error) {
	for i := range recs {
		var err error
		if dst, err = EncodeRecord(dst, recs[i], f); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// recFormat reports the log's record framing (immutable after open).
func (l *FileLog) recFormat() Format { return l.format }

// appendEncoded writes fully framed records (text lines including their
// trailing newlines, or binary frames), honoring the log's fsync setting
// and counting metrics. SegmentedLog shares this path so a rotated
// segment is byte-for-byte what FileLog would have written.
func (l *FileLog) appendEncoded(data []byte, records int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return sealedErr(l.failed)
	}
	return l.appendEncodedLocked(data, records)
}

func (l *FileLog) appendEncodedLocked(data []byte, records int) error {
	n, err := l.w.Write(data)
	if err != nil {
		return l.sealLocked(fmt.Errorf("wal: %w", err))
	}
	if l.fsync {
		start := time.Now()
		if err := l.w.Flush(); err != nil {
			return l.sealLocked(fmt.Errorf("wal: %w", err))
		}
		if err := l.f.Sync(); err != nil {
			return l.sealLocked(fmt.Errorf("wal: %w", err))
		}
		dur := time.Since(start).Nanoseconds()
		l.fsyncNs.Observe(dur)
		if obs.DefaultBus.Active() {
			obs.DefaultBus.Publish(obs.Event{Kind: obs.EvWalFsync, N: int64(records), DurNs: dur})
		}
	}
	l.appends.Add(int64(records))
	l.bytes.Add(int64(n))
	return nil
}

// setFsync flips per-append fsync; GroupCommitLog uses it to take over
// durability at batch granularity.
func (l *FileLog) setFsync(on bool) {
	l.mu.Lock()
	l.fsync = on
	l.mu.Unlock()
}

// Close flushes buffered records, syncs, and closes the underlying file.
// Closing a sealed log closes the file handle but still reports the
// sealed state — buffered data past the fault is not trustworthy and is
// not re-flushed.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		l.f.Close()
		return sealedErr(l.failed)
	}
	if err := l.w.Flush(); err != nil {
		l.sealLocked(fmt.Errorf("wal: %w", err))
		l.f.Close()
		return sealedErr(l.failed)
	}
	if err := l.f.Sync(); err != nil {
		l.sealLocked(fmt.Errorf("wal: %w", err))
		l.f.Close()
		return sealedErr(l.failed)
	}
	return l.f.Close()
}

// jsonValue is the wire form of an expr.Value. Integers travel as strings
// to keep 64-bit precision.
type jsonValue struct {
	K string  `json:"k"`
	I string  `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	S string  `json:"s,omitempty"`
	B bool    `json:"b,omitempty"`
}

type jsonRecord struct {
	Type     RecordType           `json:"t"`
	Instance string               `json:"inst"`
	Process  string               `json:"proc,omitempty"`
	Path     string               `json:"path,omitempty"`
	Iter     int                  `json:"iter,omitempty"`
	Values   map[string]jsonValue `json:"vals,omitempty"`
}

// Marshal encodes a record as one JSON line (without the trailing newline).
func Marshal(rec Record) ([]byte, error) {
	jr := jsonRecord{
		Type: rec.Type, Instance: rec.Instance, Process: rec.Process,
		Path: rec.Path, Iter: rec.Iter,
	}
	if rec.Values.Len() > 0 {
		// encoding/json writes the object in sorted key order.
		jr.Values = make(map[string]jsonValue, rec.Values.Len())
		for i, k := range rec.Values.Keys {
			jv, err := encodeValue(rec.Values.Vals[i])
			if err != nil {
				return nil, fmt.Errorf("wal: member %q: %w", k, err)
			}
			jr.Values[k] = jv
		}
	}
	return json.Marshal(jr)
}

// unmarshal decodes one JSON line into a record.
func unmarshal(b []byte) (Record, error) {
	var jr jsonRecord
	if err := json.Unmarshal(b, &jr); err != nil {
		return Record{}, fmt.Errorf("wal: %w", err)
	}
	rec := Record{
		Type: jr.Type, Instance: jr.Instance, Process: jr.Process,
		Path: jr.Path, Iter: jr.Iter,
	}
	if len(jr.Values) > 0 {
		vals := make(map[string]expr.Value, len(jr.Values))
		for k, jv := range jr.Values {
			v, err := decodeValue(jv)
			if err != nil {
				return Record{}, fmt.Errorf("wal: member %q: %w", k, err)
			}
			vals[k] = v
		}
		rec.Values = ValuesOf(vals)
	}
	return rec, nil
}

func encodeValue(v expr.Value) (jsonValue, error) {
	switch v.Kind() {
	case expr.KindInt:
		return jsonValue{K: "I", I: strconv.FormatInt(v.AsInt(), 10)}, nil
	case expr.KindFloat:
		return jsonValue{K: "F", F: v.AsFloat()}, nil
	case expr.KindString:
		return jsonValue{K: "S", S: v.AsString()}, nil
	case expr.KindBool:
		return jsonValue{K: "B", B: v.AsBool()}, nil
	default:
		return jsonValue{}, fmt.Errorf("cannot encode %s value", v.Kind())
	}
}

func decodeValue(jv jsonValue) (expr.Value, error) {
	switch jv.K {
	case "I":
		i, err := strconv.ParseInt(jv.I, 10, 64)
		if err != nil {
			return expr.Null, err
		}
		return expr.Int(i), nil
	case "F":
		return expr.Float(jv.F), nil
	case "S":
		return expr.String_(jv.S), nil
	case "B":
		return expr.Bool(jv.B), nil
	default:
		return expr.Null, fmt.Errorf("unknown value kind %q", jv.K)
	}
}

// ReadAll strictly decodes a log stream written by FileLog in either
// on-disk format: the file header (or its absence) selects the framing —
// CRC-framed text lines (legacy plain-JSON lines are also accepted) or
// length-prefixed binary frames. Any undecodable or checksum-failing
// record is an error — RepairFile (or the Ladder) cuts a torn tail.
// Strict and tolerant reads share one scanning core (scan.log), so
// a log RepairFile pronounces clean always reads back strictly.
func ReadAll(r io.Reader) ([]Record, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s := newScan("")
	if _, _, err := s.log(data, true); err != nil {
		return nil, err
	}
	return s.recs, nil
}

// ReadFile reads a file-backed log from disk (strict; see ReadAll).
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	return ReadAll(f)
}

// RepairFile implements truncate-and-resume recovery for a file log in
// either on-disk format: it reads the log tolerantly and, if a torn tail
// was found, truncates the file to the valid prefix (keeping a binary
// log's file header) so subsequent appends produce a clean log. It
// returns the surviving records and the number of bytes truncated.
func RepairFile(path string) ([]Record, int, error) {
	return readLog(path, true)
}

// readLog reads every record of one log file; see scan.readLog.
func readLog(path string, repair bool) ([]Record, int, error) {
	s := newScan("")
	defer s.release()
	dropped, err := s.readLog(path, repair)
	if err != nil {
		return nil, 0, err
	}
	return s.recs, dropped, nil
}

// readLog scans one log file tolerantly and returns the size of its torn
// tail. With repair set that tail is truncated away and the read counted
// in wal.recovery.*; without, the file is left alone.
func (s *scan) readLog(path string, repair bool) (dropped int, err error) {
	before := s.frames
	validLen, dropped, err := s.file(path)
	if err == nil && repair {
		err = repairLog(path, validLen, dropped, s.frames-before)
	}
	return dropped, err
}

// file scans one log file tolerantly: the length of its valid prefix and
// the size of the torn tail after it.
func (s *scan) file(path string) (validLen, dropped int, err error) {
	data, err := s.read(path)
	if err != nil {
		return 0, 0, err
	}
	return s.log(data, false)
}

// walkBufs holds the read buffers of walks that ended, so a walk reads its
// files into memory an earlier walk already grew.
var walkBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// read appends the bytes of the file at path to the walk's one buffer and
// returns them. They stay valid until the next read, which may move the
// buffer; a caller that holds several files keeps their offsets.
func (s *scan) read(path string) ([]byte, error) {
	if s.buf == nil {
		s.buf = walkBufs.Get().(*bytes.Buffer)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	start := s.buf.Len()
	if fi, err := f.Stat(); err == nil {
		s.buf.Grow(int(fi.Size()) + bytes.MinRead)
	}
	if _, err := s.buf.ReadFrom(f); err != nil {
		s.buf.Truncate(start)
		return nil, fmt.Errorf("wal: %w", err)
	}
	return s.buf.Bytes()[start:], nil
}

// release hands the walk's buffer back to walkBufs; the scan must read no
// more files.
func (s *scan) release() {
	if s.buf != nil {
		s.buf.Reset()
		walkBufs.Put(s.buf)
		s.buf = nil
	}
}

// repairLog truncates the torn tail scan.file found (keeping a binary log's
// file header) and counts the repair and the records that survived it.
func repairLog(path string, validLen, dropped, records int) error {
	if dropped > 0 {
		if err := os.Truncate(path, int64(validLen)); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		obs.Default.Counter("wal.recovery.repairs").Inc()
		obs.Default.Counter("wal.recovery.dropped_bytes").Add(int64(dropped))
	}
	obs.Default.Counter("wal.recovery.records").Add(int64(records))
	return nil
}

// Discard is a Log that drops every record; used by benchmarks to measure
// navigation without persistence (the B7 ablation).
var Discard Log = discard{}

type discard struct{}

func (discard) Append(Record) error { return nil }

// Compact reduces a log without changing what recovery reconstructs from
// it: a RecStartedActivity record whose (path, iter) later finished is
// dropped. Started records exist only to witness half-executed activities
// (recovery re-runs them from the beginning), and an execution with a
// logged completion is not half-executed. All RecFinishedActivity records
// are kept — replay consumes every iteration's output while re-navigating
// exit-condition loops. Compact returns a new slice; the input is not
// modified.
func Compact(records []Record) []Record {
	finished := make(map[string]map[int]bool)
	for _, r := range records {
		if r.Type != RecFinishedActivity {
			continue
		}
		m := finished[r.Path]
		if m == nil {
			m = make(map[int]bool)
			finished[r.Path] = m
		}
		m[r.Iter] = true
	}
	out := make([]Record, 0, len(records))
	for _, r := range records {
		if r.Type == RecStartedActivity && finished[r.Path][r.Iter] {
			continue
		}
		out = append(out, r)
	}
	return out
}
