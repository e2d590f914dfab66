package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/obs"
)

// The rungs of the recovery ladder, best first — which source satisfied a
// walk (History.Rung). wfrun -resume and wfquery state print the rung.
const (
	// SourceNewestCheckpoint: the newest local checkpoint read back clean.
	SourceNewestCheckpoint = "newest-checkpoint"
	// SourcePreviousCheckpoint: the newest was damaged; an older local
	// checkpoint was used.
	SourcePreviousCheckpoint = "previous-checkpoint"
	// SourceArchiveCheckpoint: no local checkpoint was usable; one was
	// fetched from the archive store and CRC-verified.
	SourceArchiveCheckpoint = "archive-checkpoint"
	// SourceFullReplay: no usable checkpoint anywhere (or none asked for):
	// the whole log is the tail.
	SourceFullReplay = "full-replay"
)

// Ladder names what a run left on disk and is the one place that walks
// it: newest checkpoint → previous checkpoint → archived checkpoint →
// full replay, then the log after the chosen checkpoint's cover, with
// archived sealed segments standing in for local ones that are missing or
// damaged. Engine recovery (engine.RecoverLadder, RecoverFleet), wfrun
// -resume and the time-travel queries of internal/history all call it, so
// "the history of a log" has one definition.
type Ladder struct {
	// Path is a single log file or a segment directory. A file has no
	// checkpoints: its walk is always the full-replay rung.
	Path string
	// Checkpoints is the checkpoint directory; empty means Path (the
	// layout of a fleet shard).
	Checkpoints string
	// Store is the archive tier; nil walks the local rungs only.
	Store Store
	// Full skips the checkpoint rungs: the walk reads the whole log.
	Full bool
	// Instance, when non-empty, is the question the walk answers: Tail
	// holds only that instance's records. The walk still checks every frame
	// it passes — CRC, structure, torn-tail and mid-log rules — so it fails
	// exactly where an unfiltered walk fails, and Len still counts every
	// record scanned; binary frames of other instances are validated
	// without being materialised. The checkpoint is returned whole.
	Instance string
}

// History is what one walk of a Ladder found.
type History struct {
	// Checkpoint is the chosen checkpoint, nil on the full-replay rung.
	Checkpoint *Checkpoint
	// Tail holds the log's records after Checkpoint.Cover, in order — the
	// whole log on the full-replay rung — or, when the ladder named an
	// Instance, that instance's records among them.
	Tail []Record
	// Rung names the source that satisfied the walk (Source*).
	Rung string
	// Torn is the size in bytes of the torn tail found: truncated away by
	// Recover, skipped by Read.
	Torn int
	// scanned counts the log records the walk read after the cover: len(Tail)
	// unless the ladder named an Instance.
	scanned int
}

// Done lists the instances that finished inside the checkpoint's cover and
// are therefore not in Tail (none on the full-replay rung).
func (h *History) Done() []string {
	if h.Checkpoint == nil {
		return nil
	}
	return h.Checkpoint.Done
}

// Len is the number of records the walk read: the checkpoint's plus every
// log record scanned after its cover, whether or not an Instance filter
// kept it.
func (h *History) Len() int {
	if h.Checkpoint == nil {
		return h.scanned
	}
	return len(h.Checkpoint.Records) + h.scanned
}

// Recover walks the ladder for a restart: a torn tail — the signature of a
// crash mid-append — is truncated away so the log is clean to append to,
// and counted in wal.recovery.*. A torn segment followed by records in a
// later segment is mid-log corruption and an error.
func (l Ladder) Recover() (*History, error) { return l.walk(true) }

// Read walks the same rungs without writing: a torn tail is skipped, no
// file is truncated and wal.recovery.* does not move. Queries use it, so
// asking about a crashed or still-running log never changes it.
func (l Ladder) Read() (*History, error) { return l.walk(false) }

func (l Ladder) walk(repair bool) (*History, error) {
	fi, err := os.Stat(l.Path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	h := &History{Rung: SourceFullReplay}
	s := newScan(l.Instance)
	defer s.release()
	if !fi.IsDir() {
		h.Torn, err = s.readLog(l.Path, repair)
	} else {
		cover := 0
		if !l.Full {
			dir := l.Checkpoints
			if dir == "" {
				dir = l.Path
			}
			if h.Checkpoint, h.Rung, err = loadCheckpoint(dir, l.Store); err != nil {
				return nil, err
			}
			if h.Checkpoint != nil {
				cover = h.Checkpoint.Cover
			}
		}
		h.Torn, err = s.readSegments(l.Path, cover, l.Store, repair)
	}
	if err != nil {
		return h, err
	}
	h.Tail, h.scanned = s.recs, s.frames
	return h, nil
}

// LoadCheckpoint returns the newest checkpoint in dir that reads back
// clean — the local checkpoint rungs of the ladder on their own; (nil,
// nil) means none is usable. The Checkpointer loads its predecessor with
// it; recovery goes through Ladder.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	cp, _, err := loadCheckpoint(dir, nil)
	return cp, err
}

// RepairSegments repairs and returns the records of dir's segments with
// index > afterIndex plus the bytes truncated — the tail step of
// Ladder.Recover on its own.
func RepairSegments(dir string, afterIndex int) ([]Record, int, error) {
	s := newScan("")
	defer s.release()
	torn, err := s.readSegments(dir, afterIndex, nil, true)
	if err != nil {
		return nil, 0, err
	}
	return s.recs, torn, nil
}

// loadCheckpoint climbs the checkpoint rungs: the newest checkpoint in
// dir, then each older one, then — when store is non-nil — the archived
// checkpoints newest-first, returning the first that decodes CRC-clean
// and the rung it stood on. Every damaged checkpoint or blob skipped
// increments recover.checkpoint_fallbacks. An unavailable archive or an
// archive miss falls through to (nil, SourceFullReplay, nil): the archive
// tier can delay recovery's best rung, never block recovery.
func loadCheckpoint(dir string, store Store) (*Checkpoint, string, error) {
	infos, err := ListCheckpoints(dir)
	if err != nil {
		return nil, "", err
	}
	fallback := func(seq int, cause error) {
		obs.Default.Counter("recover.checkpoint_fallbacks").Inc()
		if obs.DefaultBus.Active() {
			obs.DefaultBus.Publish(obs.Event{Kind: obs.EvWalCheckpointFallback,
				N: int64(seq), Cause: cause.Error()})
		}
	}
	for i := len(infos) - 1; i >= 0; i-- {
		cp, err := ReadCheckpoint(infos[i].Path)
		if err == nil {
			if i < len(infos)-1 {
				return cp, SourcePreviousCheckpoint, nil
			}
			return cp, SourceNewestCheckpoint, nil
		}
		fallback(infos[i].Seq, err)
	}
	if store == nil {
		return nil, SourceFullReplay, nil
	}
	// A down archive is degradation, not failure: full replay still
	// recovers everything local retention holds.
	names, _ := store.List()
	var blobs []CheckpointInfo
	for _, name := range names {
		if seq, ok := parseIndex(name, ckptLayout); ok {
			blobs = append(blobs, CheckpointInfo{Seq: seq, Path: name})
		}
	}
	sort.Slice(blobs, func(i, j int) bool { return blobs[i].Seq > blobs[j].Seq })
	for _, b := range blobs {
		data, err := store.Get(b.Path)
		if err == nil {
			var cp *Checkpoint
			if cp, err = parseCheckpoint(data, b.Path); err == nil {
				fetched(b.Path, len(data))
				return cp, SourceArchiveCheckpoint, nil
			}
		}
		fallback(b.Seq, err)
	}
	return nil, SourceFullReplay, nil
}

// parseIndex parses the number out of a file or archived blob name of the
// given layout (ckptLayout, segLayout); anything after the layout's
// extension — a leftover .tmp, an operator's .bak — disqualifies the name.
func parseIndex(name, layout string) (int, bool) {
	var n int
	if k, err := fmt.Sscanf(name, layout, &n); k != 1 || err != nil {
		return 0, false
	}
	return n, filepath.Ext(name) == filepath.Ext(layout)
}

// fetched counts one verified archive fetch.
func fetched(name string, size int) {
	obs.Default.Counter("recover.archive_fetches").Inc()
	if obs.DefaultBus.Active() {
		obs.DefaultBus.Publish(obs.Event{Kind: obs.EvArchiveFetch, Cause: name, N: int64(size)})
	}
}

// readSegments scans every segment of dir with index > afterIndex, each in
// whatever format its own header declares, straight into the walk's one
// record slice in index order. A torn tail is tolerated only where a crash
// can put one — in the last segment that holds any records (rotation seals
// earlier segments with an fsync, and a just-rotated empty segment after
// the torn one is fine); a torn segment followed by records in a later
// segment is mid-log corruption and is an error. With repair set the torn
// tail is truncated (RepairFile semantics) once the whole walk has passed —
// a walk that fails leaves every file as it found it, so the next walk
// fails the same way; without, no file is written. Returns the torn bytes.
//
// When store is non-nil the archived sealed segments supplement the
// directory. A segment index present only in the archive (local copy
// pruned or lost) is fetched and strict-decoded; a local segment that
// reads dirty (torn or structurally damaged) is replaced by its archived
// copy when one fetches and decodes clean — the archive only ever holds
// fully-sealed segments, so a clean archived copy is the authoritative
// content — and is then not truncated. Fetch errors and corrupt archived blobs fall back to whatever
// the local file yields (CRC rejection, never silent trust), so a down
// archive degrades to the local read.
func (s *scan) readSegments(dir string, afterIndex int, store Store, repair bool) (int, error) {
	segs, err := ListSegments(dir)
	if err != nil {
		return 0, err
	}
	local := make(map[int]string, len(segs))
	var indexes []int
	for _, seg := range segs {
		local[seg.Index] = seg.Path
		if seg.Index > afterIndex {
			indexes = append(indexes, seg.Index)
		}
	}
	archived := map[int]string{}
	if store != nil {
		names, _ := store.List() // a down archive: local segments only
		for _, name := range names {
			idx, ok := parseIndex(name, segLayout)
			if !ok {
				continue
			}
			archived[idx] = name
			if _, have := local[idx]; !have && idx > afterIndex {
				indexes = append(indexes, idx)
			}
		}
	}
	sort.Ints(indexes)

	// Every local file is read into the walk's buffer before any is
	// scanned, so a walk that keeps every record sizes its record slice
	// once, for all its segments.
	type span struct {
		start, end int
		err        error
	}
	spans := make([]span, len(indexes))
	for i, idx := range indexes {
		if path, ok := local[idx]; ok {
			data, err := s.read(path)
			spans[i] = span{s.buf.Len() - len(data), s.buf.Len(), err}
		}
	}
	if s.instance == "" {
		n := 0
		for _, sp := range spans {
			if sp.end > sp.start {
				n += binaryFrames(s.buf.Bytes()[sp.start:sp.end])
			}
		}
		s.recs = slices.Grow(s.recs, n)
	}

	// fetch makes segment idx's archived copy what the walk holds from
	// (recs, frames) on, when one fetches and strict-decodes clean. The copy
	// is scanned on its own, sharing the walk's filter and intern table, so
	// a corrupt blob leaves the local read untouched: the rare path, where
	// one more copy of a segment's records costs nothing that matters.
	fetch := func(idx, recs, frames int) bool {
		name, ok := archived[idx]
		if !ok {
			return false
		}
		data, err := store.Get(name)
		if err != nil {
			return false
		}
		a := &scan{instance: s.instance, strs: s.strs, keys: s.keys}
		if _, _, err := a.log(data, true); err != nil {
			return false // corrupt archived blob: CRC-reject, use local
		}
		fetched(name, len(data))
		s.recs, s.frames = append(s.recs[:recs], a.recs...), frames+a.frames
		return true
	}

	torn := 0
	tornAt := -1 // index of a segment that lost a tail
	// repairs holds the repairLog call of every local segment the walk used,
	// until no later segment can turn a torn tail into mid-log damage.
	var repairs []func() error
	for i, idx := range indexes {
		recs, frames := len(s.recs), s.frames // where this segment starts
		d := 0
		if path, ok := local[idx]; ok {
			validLen, dropped, err := 0, 0, spans[i].err
			if err == nil {
				validLen, dropped, err = s.log(s.buf.Bytes()[spans[i].start:spans[i].end], false)
			}
			if err != nil {
				s.recs, s.frames = s.recs[:recs], frames
			}
			d = dropped
			replaced := false
			if err != nil || d > 0 {
				// Damaged local segment: the archived sealed copy restores
				// the full content the local file lost. The local file is
				// then left as found — truncating it would make a short
				// segment look clean to a later walk with no archive to ask.
				if fetch(idx, recs, frames) {
					d, replaced = 0, true
				} else if err != nil {
					return 0, fmt.Errorf("wal: segment %d: %w", idx, err)
				}
			}
			if repair && !replaced {
				n := s.frames - frames
				repairs = append(repairs, func() error { return repairLog(path, validLen, d, n) })
			}
		} else if !fetch(idx, recs, frames) {
			return 0, fmt.Errorf("wal: segment %d: archived copy missing or corrupt and no local file", idx)
		}
		if tornAt >= 0 && s.frames > frames {
			return 0, fmt.Errorf("wal: segment %d torn but segment %d has records — mid-log corruption", tornAt, idx)
		}
		if d > 0 {
			tornAt = idx
		}
		torn += d
	}
	for _, fix := range repairs {
		if err := fix(); err != nil {
			return 0, err
		}
	}
	return torn, nil
}
