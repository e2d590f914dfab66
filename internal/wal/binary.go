package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"repro/internal/expr"
)

// Format selects the on-disk record framing of a FileLog or SegmentedLog.
//
// FormatText is the historical framing: one "crc8hex json\n" line per
// record and no file header, so every log written before formats existed
// replays verbatim. FormatBinary writes an 8-byte file header (magic +
// format byte) followed by length-prefixed binary frames. Readers sniff
// the header: a file that starts with the magic is decoded per its format
// byte, anything else is text. The format is a property of a file, fixed
// at creation; a segment directory may mix per-file formats (a process
// upgraded mid-history), and recovery reads each segment by its own
// header.
type Format byte

// The supported on-disk record framings.
const (
	// FormatText frames records as "crc8hex json\n" lines (the default;
	// byte value 0 so the zero value of Format is the legacy framing).
	FormatText Format = 0
	// FormatBinary frames records as length-prefixed CRC-32C binary
	// frames behind a magic file header.
	FormatBinary Format = 1
)

// String names the format for tables and error messages.
func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatBinary:
		return "binary"
	default:
		return fmt.Sprintf("Format(%d)", byte(f))
	}
}

// binaryMagic is the first 7 bytes of a headered log file. The leading
// 0xF5 byte can never begin a text log (those start with a hex digit, a
// '{' legacy line, or whitespace), so sniffing is unambiguous.
var binaryMagic = [7]byte{0xF5, 'W', 'A', 'L', 'H', 'D', 'R'}

// fileHeaderLen is the size of the magic-plus-format-byte file header.
const fileHeaderLen = 8

// FileHeader returns the 8-byte header written at the start of a log file
// whose records use format f: the magic followed by the format byte.
// FormatText logs normally carry no header (for legacy compatibility), but
// a headered text file is also accepted by the readers.
func FileHeader(f Format) []byte {
	h := make([]byte, 0, fileHeaderLen)
	h = append(h, binaryMagic[:]...)
	return append(h, byte(f))
}

// maxFrameBody bounds a binary frame's declared body length (64 MiB). A
// larger declared length is treated as frame corruption rather than an
// allocation request.
const maxFrameBody = 64 << 20

// binFrameHdr is the per-frame overhead: u32 little-endian body length
// followed by u32 little-endian CRC-32C of the body.
const binFrameHdr = 8

// Record type codes of the binary body. Unknown (test-only) types travel
// as binTypeOther followed by a length-prefixed string.
const (
	binTypeCreated  = 1
	binTypeActivity = 2
	binTypeStarted  = 3
	binTypeDone     = 4
	binTypeOther    = 0xFF
)

// Value kind codes of the binary body.
const (
	binKindInt    = 'I'
	binKindFloat  = 'F'
	binKindString = 'S'
	binKindBool   = 'B'
)

// appendUstr appends a uvarint length prefix and the string bytes.
func appendUstr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBinaryBody appends the frame body for rec: type code, the three
// length-prefixed identity strings, the zigzag-varint iteration, and the
// members in rec.Values order (see Values). The encodable value domain is
// exactly the text format's (Null and non-finite floats are rejected), so a
// record marshals in one format iff it marshals in the other.
func appendBinaryBody(dst []byte, rec Record) ([]byte, error) {
	switch rec.Type {
	case RecCreated:
		dst = append(dst, binTypeCreated)
	case RecFinishedActivity:
		dst = append(dst, binTypeActivity)
	case RecStartedActivity:
		dst = append(dst, binTypeStarted)
	case RecDone:
		dst = append(dst, binTypeDone)
	default:
		dst = append(dst, binTypeOther)
		dst = appendUstr(dst, string(rec.Type))
	}
	dst = appendUstr(dst, rec.Instance)
	dst = appendUstr(dst, rec.Process)
	dst = appendUstr(dst, rec.Path)
	dst = binary.AppendVarint(dst, int64(rec.Iter))
	dst = binary.AppendUvarint(dst, uint64(rec.Values.Len()))
	for i, k := range rec.Values.Keys {
		v := rec.Values.Vals[i]
		dst = appendUstr(dst, k)
		switch v.Kind() {
		case expr.KindInt:
			dst = append(dst, binKindInt)
			dst = binary.AppendVarint(dst, v.AsInt())
		case expr.KindFloat:
			f := v.AsFloat()
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return dst, fmt.Errorf("wal: member %q: cannot encode non-finite FLOAT value", k)
			}
			dst = append(dst, binKindFloat)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		case expr.KindString:
			dst = append(dst, binKindString)
			dst = appendUstr(dst, v.AsString())
		case expr.KindBool:
			dst = append(dst, binKindBool)
			if v.AsBool() {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		default:
			return dst, fmt.Errorf("wal: member %q: cannot encode %s value", k, v.Kind())
		}
	}
	return dst, nil
}

// appendRecordBinary appends one complete binary frame (length prefix,
// CRC-32C, body) for rec to dst and returns the extended slice. It
// allocates nothing when dst has spare capacity — the zero-allocation
// hot path FileLog and GroupCommitLog batch buffers rely on. On error
// dst is returned truncated to its original length.
func appendRecordBinary(dst []byte, rec Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	bodyStart := len(dst)
	dst, err := appendBinaryBody(dst, rec)
	if err != nil {
		return dst[:start], err
	}
	body := dst[bodyStart:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, crcTable))
	return dst, nil
}

// binReader is a cursor over a frame body with sticky out-of-bounds
// detection, so decode error handling lives in one place.
type binReader struct {
	b   []byte
	off int
	bad bool
}

func (r *binReader) byteVal() byte {
	if r.off >= len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *binReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

// str returns the bytes of a length-prefixed string, aliasing the body:
// the walk decides whether they are worth a string.
func (r *binReader) str() []byte {
	n := r.uvarint()
	if r.bad || uint64(r.off)+n > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	s := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}

func (r *binReader) u64() uint64 {
	if r.off+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// scan is the state of one walk over log bytes: a single file, or every
// segment of a ladder walk in turn. The strict and tolerant readers, the
// ladder and the instance-filtered query walk all decode through it, so
// there is one definition of what a log's bytes mean.
type scan struct {
	// instance, when non-empty, is the projection the walk computes: only
	// this instance's records are materialised. A frame of another instance
	// still gets its CRC check and the same walk of its body, so the scan
	// reports every error an unfiltered one would — it just allocates
	// nothing for what the caller would throw away.
	instance string
	// recs holds the records materialised so far, in log order.
	recs []Record
	// frames counts the frames and text lines that scanned clean, kept or
	// not: what the walk read, as History.Len reports it.
	frames int
	// strs interns the identity strings and value keys of binary frames: a
	// log repeats a few paths, process names and member names thousands of
	// times. Nil (UnmarshalBinary's one-record scan) interns nothing.
	strs map[string]string
	// keys interns whole key vectors by the raw bytes of a frame's member
	// names, collected in keyb: records of one container type share Keys.
	keys map[string][]string
	keyb []byte
	// ends, when non-nil, collects the offset in its file at which every
	// clean frame ends (FrameEnds).
	ends []int64
	// buf holds the bytes of every file the walk read (scan.read), taken
	// from walkBufs and handed back by release. Nothing the walk returns
	// aliases it: str and body copy every string and value out.
	buf *bytes.Buffer
}

// maxInterned bounds a walk's intern table; past it strings are allocated
// per record, as before interning.
const maxInterned = 1 << 16

func newScan(instance string) *scan {
	return &scan{instance: instance, strs: make(map[string]string), keys: make(map[string][]string)}
}

// frame counts one clean frame that ends at off.
func (s *scan) frame(off int) {
	s.frames++
	if s.ends != nil {
		s.ends = append(s.ends, int64(off))
	}
}

// str returns b as a string, shared with every earlier equal string of the
// walk.
func (s *scan) str(b []byte) string {
	if v, ok := s.strs[string(b)]; ok {
		return v
	}
	v := string(b)
	if s.strs != nil && len(s.strs) < maxInterned {
		s.strs[v] = v
	}
	return v
}

// values pairs vals, decoded in frame order, with the key vector of the
// member names the same frame left in keyb.
func (s *scan) values(vals []expr.Value) Values {
	keys, ok := s.keys[string(s.keyb)]
	if !ok {
		keys = make([]string, 0, len(vals))
		for r := (binReader{b: s.keyb}); r.off < len(r.b); {
			keys = append(keys, s.str(r.str()))
		}
		if s.keys != nil && len(s.keys) < maxInterned {
			s.keys[string(s.keyb)] = keys
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			// A log written before members had an order, or by hand.
			return ValuesOf(Values{Keys: keys, Vals: vals}.Map())
		}
	}
	return Values{Keys: keys, Vals: vals}
}

// body walks one binary frame body — the only function that knows the
// body's layout. It always validates the whole body (type code, the three
// identity strings, iteration, value count, every value's kind and
// payload, no trailing bytes) and reports the frame's instance ID,
// aliasing b; it fills rec, and allocates, only when the walk keeps that
// instance (keep).
func (s *scan) body(b []byte, rec *Record) (instance []byte, keep bool, err error) {
	r := binReader{b: b}
	var typ RecordType
	var other []byte
	switch tc := r.byteVal(); tc {
	case binTypeCreated:
		typ = RecCreated
	case binTypeActivity:
		typ = RecFinishedActivity
	case binTypeStarted:
		typ = RecStartedActivity
	case binTypeDone:
		typ = RecDone
	case binTypeOther:
		other = r.str()
	default:
		return nil, false, fmt.Errorf("wal: unknown record type code %d", tc)
	}
	instance = r.str()
	process, path := r.str(), r.str()
	iter := r.varint()
	nvals := r.uvarint()
	if r.bad {
		return nil, false, fmt.Errorf("wal: truncated binary record body")
	}
	if nvals > uint64(len(b)) {
		// Each value needs at least 2 body bytes; a larger count is
		// corruption, not an allocation request.
		return nil, false, fmt.Errorf("wal: implausible value count %d", nvals)
	}
	if keep = s.instance == "" || string(instance) == s.instance; keep {
		if other != nil {
			typ = RecordType(s.str(other))
		}
		*rec = Record{Type: typ, Instance: s.str(instance), Process: s.str(process), Path: s.str(path), Iter: int(iter)}
	}
	var vals []expr.Value
	if keep && nvals > 0 {
		vals = make([]expr.Value, nvals)
		s.keyb = s.keyb[:0]
	}
	for i := uint64(0); i < nvals; i++ {
		at := r.off
		k := r.str()
		if keep {
			s.keyb = append(s.keyb, b[at:r.off]...)
		}
		var v expr.Value
		switch kind := r.byteVal(); kind {
		case binKindInt:
			v = expr.Int(r.varint())
		case binKindFloat:
			f := math.Float64frombits(r.u64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, false, fmt.Errorf("wal: member %q: non-finite FLOAT value", k)
			}
			v = expr.Float(f)
		case binKindString:
			if sv := r.str(); keep {
				v = expr.String_(string(sv))
			}
		case binKindBool:
			v = expr.Bool(r.byteVal() != 0)
		default:
			if r.bad {
				return nil, false, fmt.Errorf("wal: truncated binary record body")
			}
			return nil, false, fmt.Errorf("wal: member %q: unknown value kind %q", k, kind)
		}
		if keep {
			vals[i] = v
		}
	}
	if r.bad {
		return nil, false, fmt.Errorf("wal: truncated binary record body")
	}
	if r.off != len(b) {
		return nil, false, fmt.Errorf("wal: %d trailing bytes after binary record body", len(b)-r.off)
	}
	if vals != nil {
		rec.Values = s.values(vals)
	}
	return instance, keep, nil
}

// UnmarshalBinary decodes one binary frame body into a record — the
// inverse of the binary frame encoder, and the body walk of every scan
// with nothing filtered. The accepted domain matches the text decoder:
// a record UnmarshalBinary accepts always re-marshals in both formats.
func UnmarshalBinary(b []byte) (Record, error) {
	var s scan
	var rec Record
	if _, _, err := s.body(b, &rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// EncodeRecord appends rec to dst in format f — one full text line
// including its trailing newline, or one binary frame — and returns the
// extended slice. This is the single encode seam every log backend
// writes through; the binary path allocates nothing when dst has spare
// capacity.
func EncodeRecord(dst []byte, rec Record, f Format) ([]byte, error) {
	if f == FormatBinary {
		return appendRecordBinary(dst, rec)
	}
	b, err := Marshal(rec)
	if err != nil {
		return dst, err
	}
	dst = appendTextFrame(dst, b)
	return append(dst, '\n'), nil
}

// countFrames counts the complete frames from off by hopping their length
// prefixes, so a scan that keeps everything sizes its record slice once.
func countFrames(data []byte, off int) int {
	n := 0
	for len(data)-off >= binFrameHdr {
		bodyLen := binary.LittleEndian.Uint32(data[off:])
		if bodyLen > maxFrameBody || len(data)-off-binFrameHdr < int(bodyLen) {
			break
		}
		off += binFrameHdr + int(bodyLen)
		n++
	}
	return n
}

// binaryFrames counts the complete frames of a binary log file's bytes; a
// text log, or a file too short for its header, counts none.
func binaryFrames(data []byte) int {
	if len(data) < fileHeaderLen || !bytes.Equal(data[:len(binaryMagic)], binaryMagic[:]) || Format(data[fileHeaderLen-1]) != FormatBinary {
		return 0
	}
	return countFrames(data, fileHeaderLen)
}

// binary walks binary frames starting at off (just past the file header).
// Tolerant mode mirrors the text scanner's crash semantics: an incomplete
// frame at EOF, or a final frame whose CRC or body fails, is a torn tail
// and is dropped; a complete bad frame followed by further bytes is mid-log
// corruption and an error. A corrupted length field makes
// resynchronization impossible, so everything from the bad frame on is
// dropped as a tail — strict mode errors in every one of these cases, so a
// strictly readable log always reads tolerantly with nothing dropped.
func (s *scan) binary(data []byte, off int, strict bool) (validLen, droppedBytes int, err error) {
	validLen = off
	if s.instance == "" {
		s.recs = slices.Grow(s.recs, countFrames(data, off))
	}
	frame := 0
	for off < len(data) {
		frame++
		rem := data[off:]
		if len(rem) < binFrameHdr {
			if strict {
				return 0, 0, fmt.Errorf("wal: frame %d: truncated frame header", frame)
			}
			return validLen, len(data) - validLen, nil
		}
		bodyLen := binary.LittleEndian.Uint32(rem)
		if bodyLen > maxFrameBody {
			if strict {
				return 0, 0, fmt.Errorf("wal: frame %d: implausible body length %d", frame, bodyLen)
			}
			return validLen, len(data) - validLen, nil
		}
		end := binFrameHdr + int(bodyLen)
		if len(rem) < end {
			if strict {
				return 0, 0, fmt.Errorf("wal: frame %d: truncated body (%d of %d bytes)", frame, len(rem)-binFrameHdr, bodyLen)
			}
			return validLen, len(data) - validLen, nil
		}
		body := rem[binFrameHdr:end]
		final := off+end == len(data)
		if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(rem[4:]); got != want {
			perr := fmt.Errorf("wal: frame %d: checksum mismatch (want %08x, got %08x)", frame, want, got)
			if strict {
				return 0, 0, perr
			}
			if !final {
				return 0, 0, fmt.Errorf("%w (followed by further frames — mid-log corruption)", perr)
			}
			return validLen, len(data) - validLen, nil
		}
		var rec Record
		_, keep, perr := s.body(body, &rec)
		if perr != nil {
			if strict {
				return 0, 0, fmt.Errorf("wal: frame %d: %w", frame, perr)
			}
			if !final {
				return 0, 0, fmt.Errorf("wal: frame %d: %w (followed by further frames — mid-log corruption)", frame, perr)
			}
			return validLen, len(data) - validLen, nil
		}
		off += end
		s.frame(off)
		if keep {
			s.recs = append(s.recs, rec)
		}
		validLen = off
	}
	return validLen, 0, nil
}

// log sniffs the file header and walks the whole log in the format it
// declares (no header means text), adding what it finds to the scan. It is
// the single scanning core behind the strict and tolerant readers — both
// walk the identical byte semantics with strictness as the only
// difference, so the two can never diverge on the same input (the PR 6
// CRLF parity-bug class, fixed here by construction; the old strict reader
// also capped lines at 16 MiB while the tolerant one did not, so a
// repaired log could still fail a strict read-back). After an error the
// scan holds a partial read of data: the caller discards it or rewinds.
func (s *scan) log(data []byte, strict bool) (validLen, droppedBytes int, err error) {
	if len(data) == 0 {
		return 0, 0, nil
	}
	if data[0] != binaryMagic[0] {
		return s.text(data, 0, strict)
	}
	if len(data) < fileHeaderLen {
		if bytes.Equal(data, binaryMagic[:len(data)]) {
			// A crash can tear the header itself; the file holds no
			// records yet.
			if strict {
				return 0, 0, fmt.Errorf("wal: truncated file header")
			}
			return 0, len(data), nil
		}
		return 0, 0, fmt.Errorf("wal: bad file magic")
	}
	if !bytes.Equal(data[:len(binaryMagic)], binaryMagic[:]) {
		return 0, 0, fmt.Errorf("wal: bad file magic")
	}
	switch Format(data[fileHeaderLen-1]) {
	case FormatText:
		return s.text(data, fileHeaderLen, strict)
	case FormatBinary:
		return s.binary(data, fileHeaderLen, strict)
	default:
		return 0, 0, fmt.Errorf("wal: unsupported log format %d", data[fileHeaderLen-1])
	}
}

// text walks text-framed log bytes starting at off; see log. Only the final
// non-empty line may be torn or corrupt in tolerant mode; strict mode errors
// on any bad line. Every line is parsed in full; an instance filter applies
// to the parsed record.
func (s *scan) text(data []byte, off int, strict bool) (validLen, droppedBytes int, err error) {
	validLen = off
	lineNo := 0
	for off < len(data) {
		end := len(data)
		next := end
		if i := bytes.IndexByte(data[off:], '\n'); i >= 0 {
			end = off + i
			next = end + 1
		}
		line := data[off:end]
		lineNo++
		// Strip one trailing carriage return so a CRLF log reads the same
		// strictly and tolerantly.
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			off = next
			validLen = off
			continue
		}
		rec, perr := parseLine(line)
		if perr != nil {
			if strict {
				return 0, 0, fmt.Errorf("wal: line %d: %w", lineNo, perr)
			}
			// Tolerated only as the final non-empty line.
			for rest := next; rest < len(data); {
				rend := len(data)
				rnext := rend
				if i := bytes.IndexByte(data[rest:], '\n'); i >= 0 {
					rend = rest + i
					rnext = rend + 1
				}
				rline := data[rest:rend]
				if n := len(rline); n > 0 && rline[n-1] == '\r' {
					rline = rline[:n-1]
				}
				if len(rline) > 0 {
					return 0, 0, fmt.Errorf("wal: line %d: %w (followed by further records — mid-log corruption)", lineNo, perr)
				}
				rest = rnext
			}
			return validLen, len(data) - validLen, nil
		}
		s.frame(next)
		if s.instance == "" || rec.Instance == s.instance {
			s.recs = append(s.recs, rec)
		}
		off = next
		validLen = off
	}
	return validLen, 0, nil
}
