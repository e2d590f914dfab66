package history

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/engine"
	"repro/internal/wal"
)

// Source locates a run's write-ahead state on disk — the input of the
// time-travel query class. Layouts are the ones wfrun produces: a single
// log file, a segment directory (with an optional separate checkpoint
// directory, wfrun -checkpoint), or a sharded fleet root whose shard-NN/
// subdirectories each hold segments and co-located checkpoints.
type Source struct {
	// WAL is the log file, segment directory, or sharded fleet root.
	WAL string
	// Checkpoint is a separate checkpoint directory (wfrun -checkpoint);
	// empty means checkpoints are co-located with the segments (the
	// sharded layout) or absent.
	Checkpoint string
	// Full forces the full-history rung — scan the entire log (of each
	// shard probed, on a fleet root) even when a usable checkpoint exists.
	// It is the baseline B16 measures the checkpoint ladder against.
	Full bool
}

// Stats reports how a time-travel query was satisfied: which recovery
// rung supplied the queried instance's records, and how much history had
// to be read versus replayed. The B16 table gates the bounded path's
// advantage on these.
type Stats struct {
	// Rung is the checkpoint-ladder rung (wal.SourceNewestCheckpoint,
	// wal.SourcePreviousCheckpoint, wal.SourceFullReplay) that supplied
	// the records.
	Rung string
	// RecordsRead counts the records scanned on disk to find the instance
	// — every checkpoint record and every log frame the walks passed and
	// checked, not only the ones decoded into records; RecordsReplayed
	// counts the instance's own records handed to the replay engine.
	RecordsRead     int
	RecordsReplayed int
	// Shards is the number of shard directories probed (0 for unsharded
	// layouts).
	Shards int
}

// filterInstance keeps records of one instance, preserving order.
func filterInstance(records []wal.Record, id string) []wal.Record {
	var out []wal.Record
	for _, r := range records {
		if r.Instance == id {
			out = append(out, r)
		}
	}
	return out
}

// Records returns the WAL records needed to replay instance id, through
// the same recovery ladder as wfrun -resume (wal.Ladder) but its
// non-mutating walk — a query never truncates or repairs the log it
// reads, so it is safe against a crashed run's evidence and a live run's
// files alike. The ladder is given the question (Ladder.Instance): every
// frame it passes is still checked and counted in RecordsRead, but only
// id's are decoded into records. The bounded view comes first: the best
// checkpoint's compacted records plus the segment tail when the instance
// is live in it; then the full history — at once with Full set, or as
// soon as the checkpoint's Done list names the instance.
//
// A sharded root is probed home shard first (engine.ShardFor): unless
// admission spilled the instance to a peer, its whole history is there and
// no other shard is read. An instance's records live in exactly one shard,
// so the order changes what is read, never what is returned; the other
// shards follow in index order, and an exhaustive full sweep is the last
// resort before "not found".
func (s *Source) Records(id string) ([]wal.Record, *Stats, error) {
	fi, err := os.Stat(s.WAL)
	if err != nil {
		return nil, nil, err
	}
	ladders := []wal.Ladder{{Path: s.WAL, Checkpoints: s.Checkpoint, Instance: id}}
	st, where := &Stats{}, s.WAL
	if fi.IsDir() {
		shards, err := engine.ShardDirs(s.WAL)
		if err != nil {
			return nil, nil, err
		}
		if len(shards) > 0 {
			st.Shards, where = len(shards), "any shard under "+s.WAL
			home := engine.ShardDirName(engine.ShardFor(id, len(shards)))
			ladders = ladders[:0]
			for _, dir := range shards {
				l := wal.Ladder{Path: dir, Instance: id}
				if filepath.Base(dir) == home {
					ladders = append([]wal.Ladder{l}, ladders...)
				} else {
					ladders = append(ladders, l)
				}
			}
		}
	}
	// probe walks one ladder and returns id's replayable records in its
	// view, nil when the view cannot replay it.
	probe := func(l wal.Ladder, full bool) ([]wal.Record, *wal.History, error) {
		l.Full = full
		h, err := l.Read()
		if err != nil {
			return nil, nil, err
		}
		st.Rung = h.Rung
		if st.Shards == 0 {
			st.RecordsRead = 0 // an unsharded source reports its last walk only
		}
		st.RecordsRead += h.Len()
		recs := located(h, id)
		st.RecordsReplayed = len(recs)
		return recs, h, nil
	}
	for _, full := range []bool{false, true} {
		if s.Full && !full {
			continue
		}
		for _, l := range ladders {
			recs, h, err := probe(l, full)
			if err == nil && len(recs) == 0 && !full && slices.Contains(h.Done(), id) {
				// Finished inside this checkpoint's cover: its records are
				// here and nowhere else, behind the cover.
				recs, _, err = probe(l, true)
			}
			if err != nil || len(recs) > 0 {
				return recs, st, err
			}
		}
	}
	return nil, st, fmt.Errorf("history: instance %s not found in %s", id, where)
}

// located returns instance id's replayable records in one walk's view, or
// nil when the view cannot replay it: on a checkpoint rung an instance
// that finished inside the cover has lost its compacted records (its
// intermediate states need the full history), and one the view has never
// seen is simply elsewhere. h is a walk of a ladder that named id, so its
// tail is already id's alone.
func located(h *wal.History, id string) []wal.Record {
	if h.Checkpoint == nil {
		return h.Tail
	}
	if live := filterInstance(h.Checkpoint.Records, id); len(live) > 0 {
		return append(live, h.Tail...)
	}
	if len(h.Tail) > 0 && h.Tail[0].Type == wal.RecCreated {
		return h.Tail // born after the checkpoint's cover: the tail is complete
	}
	return nil
}

// Builder constructs a fresh engine with the run's programs and process
// templates registered; the time-travel query appends its own options
// (the trail observer) when replaying. cmd/wfquery builds one from the
// FDL file; the sim soaks reuse their workload builders.
type Builder func(opts ...engine.Option) (*engine.Engine, error)

// StateAsOf replays instance id from its records and returns its
// snapshot as of trail boundary k — the state the live instance had just
// after appending its k-th audit-trail event (1-based; k <= 0 means the
// newest boundary). Recovery is deterministic re-navigation that
// reproduces the identical trail (E4/E9), so the replay revisits every
// historical boundary in order and the trail observer captures the one
// asked for; E13 proves the result identical to a live Instance.Snapshot
// taken at the same boundary. The returned count is the total number of
// boundaries the replay visited.
//
// A record set that ends mid-activity (a crashed run) replays cleanly up
// to its last logged completion; querying a boundary past recorded
// history is an error, and whatever the engine does beyond the log
// (wfquery registers halting stub programs there) cannot disturb
// already-captured snapshots.
func StateAsOf(build Builder, records []wal.Record, id string, k int) (*engine.InstanceSnapshot, int, error) {
	recs := records
	if slices.ContainsFunc(records, func(r wal.Record) bool { return r.Instance != id }) {
		recs = filterInstance(records, id) // a mixed slice, not one Records projected
	}
	if len(recs) == 0 {
		return nil, 0, fmt.Errorf("history: no records for instance %s", id)
	}
	var snap *engine.InstanceSnapshot
	n := 0
	e, err := build(engine.WithTrailObserver(func(inst *engine.Instance, ev engine.Event) {
		if inst.ID() != id {
			return
		}
		n++
		if n == k || k <= 0 {
			snap = inst.Snapshot()
		}
	}))
	if err != nil {
		return nil, 0, err
	}
	_, rerr := engine.Recover(e, recs, wal.Discard)
	if snap != nil && (k <= 0 || snap.TrailLen == k) {
		return snap, n, nil
	}
	if rerr != nil {
		return nil, n, rerr
	}
	return nil, n, fmt.Errorf("history: instance %s has %d trail boundaries, none numbered %d", id, n, k)
}

// StateAt resolves the instance's records through the source's recovery
// ladder and replays to boundary k — the whole time-travel query in one
// step.
func (s *Source) StateAt(build Builder, id string, k int) (*engine.InstanceSnapshot, int, *Stats, error) {
	recs, st, err := s.Records(id)
	if err != nil {
		return nil, 0, st, err
	}
	snap, n, err := StateAsOf(build, recs, id, k)
	return snap, n, st, err
}
