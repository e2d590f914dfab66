package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
)

// CheckpointVersion is the on-disk checkpoint format version this package
// writes and the only one it accepts. The version travels in the framed
// header line, so an incompatible future format is rejected (and the
// recovery ladder falls back) rather than misread.
const CheckpointVersion = 1

// Checkpoint is a crash-consistent summary of a log prefix: for every
// instance still live at the covered boundary, its compacted records
// (exactly Compact semantics — all finished-activity outputs plus any
// still-pending started witnesses); instances whose RecDone fell inside
// the prefix appear only in Done. Cover is the highest sealed segment
// index folded in; recovery seeds instances from Records and replays only
// segments with index > Cover (the tail). Checkpoints chain: each new one
// is built from its predecessor plus the newly sealed segments, so the
// covered prefix never needs to be re-read from segment files that
// retention has since deleted.
type Checkpoint struct {
	Seq     int      // monotonically increasing checkpoint number
	Cover   int      // highest sealed segment index summarized
	Done    []string // instances that finished within the covered prefix
	Records []Record // compacted records of the live instances
}

// CheckpointInfo identifies one on-disk checkpoint file.
type CheckpointInfo struct {
	Seq  int
	Path string
}

// ckptHeader is the framed first line of a checkpoint file.
type ckptHeader struct {
	V     int      `json:"v"`
	Seq   int      `json:"seq"`
	Cover int      `json:"cover"`
	Done  []string `json:"done,omitempty"`
	N     int      `json:"n"` // record lines that must follow
}

// ckptLayout names checkpoint files (and archived checkpoint blobs) so
// lexical order equals sequence order.
const ckptLayout = "ckpt-%06d.ckpt"

func ckptPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf(ckptLayout, seq))
}

// BuildCheckpoint folds newly sealed records into a predecessor
// checkpoint (nil for the first). The result covers segment indexes up to
// cover: per instance, records are concatenated with the predecessor's in
// causal order, instances with a RecDone are moved to Done, and the rest
// are reduced with Compact — the same compaction recovery-equivalence
// contract, so Recover over checkpoint records reconstructs exactly the
// state a full replay would (asserted by the engine's property tests).
func BuildCheckpoint(prev *Checkpoint, sealedRecords []Record, cover int) *Checkpoint {
	seq := 1
	done := make(map[string]bool)
	var all []Record
	if prev != nil {
		seq = prev.Seq + 1
		for _, id := range prev.Done {
			done[id] = true
		}
		all = append(all, prev.Records...)
	}
	all = append(all, sealedRecords...)

	byInst := make(map[string][]Record)
	var order []string
	for _, r := range all {
		if _, seen := byInst[r.Instance]; !seen {
			order = append(order, r.Instance)
		}
		byInst[r.Instance] = append(byInst[r.Instance], r)
	}
	var out []Record
	for _, id := range order {
		recs := byInst[id]
		finished := false
		for _, r := range recs {
			if r.Type == RecDone {
				finished = true
				break
			}
		}
		if finished {
			done[id] = true
			continue
		}
		out = append(out, Compact(recs)...)
	}
	ids := make([]string, 0, len(done))
	for id := range done {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return &Checkpoint{Seq: seq, Cover: cover, Done: ids, Records: out}
}

// WriteCheckpoint writes cp to dir atomically: the CRC-framed bytes go to
// a temporary file that is fsynced, renamed to its final ckpt-NNNNNN.ckpt
// name, and made durable with a directory fsync. A crash mid-write leaves
// only a *.tmp file, which readers ignore — a visible checkpoint is
// always complete (bit rot and torn renames are still caught by the CRC
// frames and record count at read time, and the recovery ladder falls
// back). Returns the final path.
func WriteCheckpoint(dir string, cp *Checkpoint) (string, error) {
	return writeCheckpoint(OSFS{}, dir, cp)
}

// writeCheckpoint is WriteCheckpoint over an explicit filesystem — the
// seam the fault tests use to fail a checkpoint's write, fsync, or
// publication rename with a FaultFS. A failed checkpoint write leaves at
// most a *.tmp file and never a visible damaged checkpoint.
func writeCheckpoint(fsys FS, dir string, cp *Checkpoint) (string, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", fmt.Errorf("wal: %w", err)
	}
	var buf bytes.Buffer
	hdr, err := json.Marshal(ckptHeader{
		V: CheckpointVersion, Seq: cp.Seq, Cover: cp.Cover,
		Done: cp.Done, N: len(cp.Records),
	})
	if err != nil {
		return "", fmt.Errorf("wal: %w", err)
	}
	buf.Write(frameLine(hdr))
	buf.WriteByte('\n')
	for _, rec := range cp.Records {
		b, err := Marshal(rec)
		if err != nil {
			return "", err
		}
		buf.Write(frameLine(b))
		buf.WriteByte('\n')
	}

	path := ckptPath(dir, cp.Seq)
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return "", fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("wal: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	obs.Default.Counter("wal.checkpoint.writes").Inc()
	obs.Default.Counter("wal.checkpoint.bytes").Add(int64(buf.Len()))
	dur := time.Since(start).Nanoseconds()
	obs.Default.Histogram("wal.checkpoint.duration_ns").Observe(dur)
	if obs.DefaultBus.Active() {
		obs.DefaultBus.Publish(obs.Event{Kind: obs.EvWalCheckpoint, N: int64(cp.Seq), DurNs: dur})
	}
	return path, nil
}

// ReadCheckpoint strictly reads one checkpoint file: the framed header
// must verify, declare a supported version, and be followed by exactly
// the declared number of CRC-clean record lines. Anything else — torn
// tail, checksum mismatch, missing or surplus records — is an error;
// callers fall down the recovery ladder (Ladder) instead of trusting a
// damaged summary.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return parseCheckpoint(data, filepath.Base(path))
}

// parseCheckpoint strictly decodes checkpoint bytes (see ReadCheckpoint)
// — the shared core for local files and archive-fetched blobs, so a
// blob corrupted in the archive is CRC-rejected exactly like a damaged
// local file. name labels errors.
func parseCheckpoint(data []byte, name string) (*Checkpoint, error) {
	lines := bytes.Split(data, []byte("\n"))
	// A well-formed file ends with a newline, so the final split element is
	// empty; any other empty line is malformed enough to reject implicitly
	// via the count check.
	var body [][]byte
	for _, ln := range lines {
		if len(ln) > 0 {
			body = append(body, ln)
		}
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("wal: checkpoint %s: empty file", name)
	}
	hl := body[0]
	if len(hl) < 10 || hl[8] != ' ' {
		return nil, fmt.Errorf("wal: checkpoint %s: malformed header frame", name)
	}
	if _, err := parseFrame(hl); err != nil {
		return nil, fmt.Errorf("wal: checkpoint %s: %w", name, err)
	}
	var hdr ckptHeader
	if err := json.Unmarshal(hl[9:], &hdr); err != nil {
		return nil, fmt.Errorf("wal: checkpoint %s: %w", name, err)
	}
	if hdr.V != CheckpointVersion {
		return nil, fmt.Errorf("wal: checkpoint %s: unsupported version %d", name, hdr.V)
	}
	if len(body)-1 != hdr.N {
		return nil, fmt.Errorf("wal: checkpoint %s: header declares %d records, found %d", name, hdr.N, len(body)-1)
	}
	cp := &Checkpoint{Seq: hdr.Seq, Cover: hdr.Cover, Done: hdr.Done}
	// Sized once: a recovered instance's replay index keeps it alive.
	cp.Records = slices.Grow(cp.Records, hdr.N)
	for i, ln := range body[1:] {
		rec, err := parseLine(ln)
		if err != nil {
			return nil, fmt.Errorf("wal: checkpoint %s: record %d: %w", name, i+1, err)
		}
		cp.Records = append(cp.Records, rec)
	}
	return cp, nil
}

// parseFrame verifies a framed line's checksum and returns its body.
func parseFrame(line []byte) ([]byte, error) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("wal: malformed frame")
	}
	body := line[9:]
	want, err := decodeCRC(line[:8])
	if err != nil {
		return nil, err
	}
	if got := crc32Checksum(body); got != want {
		return nil, fmt.Errorf("wal: frame checksum mismatch")
	}
	return body, nil
}

// ListCheckpoints lists the checkpoint files present in dir in sequence
// order, ignoring temporaries left by a crash mid-WriteCheckpoint.
func ListCheckpoints(dir string) ([]CheckpointInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []CheckpointInfo
	for _, ent := range ents {
		if seq, ok := parseIndex(ent.Name(), ckptLayout); ok {
			out = append(out, CheckpointInfo{Seq: seq, Path: filepath.Join(dir, ent.Name())})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// PruneCheckpointsEligible deletes all but the newest keep checkpoint
// files in dir (retention keeps two: the newest plus its predecessor as
// the fallback rung). A checkpoint outside the newest keep is deleted
// only when eligible (keyed by file base name) returns true — the archive
// gate, where eligibility means "archived copy CRC-verified". Ineligible
// checkpoints survive (retention grows while the archive is degraded)
// and are re-offered on the next pass. A nil predicate admits
// everything. Survivors are returned in sequence order.
func PruneCheckpointsEligible(dir string, keep int, eligible func(name string) bool) ([]CheckpointInfo, error) {
	infos, err := ListCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	if keep < 1 {
		keep = 1
	}
	if len(infos) <= keep {
		return infos, nil
	}
	survivors := append([]CheckpointInfo(nil), infos[len(infos)-keep:]...)
	removed := false
	for _, ci := range infos[:len(infos)-keep] {
		if eligible != nil && !eligible(filepath.Base(ci.Path)) {
			survivors = append(survivors, ci)
			continue
		}
		if err := os.Remove(ci.Path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("wal: %w", err)
		}
		removed = true
	}
	if removed {
		if err := syncDir(dir); err != nil {
			return nil, err
		}
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].Seq < survivors[j].Seq })
	return survivors, nil
}
