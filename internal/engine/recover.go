package engine

import (
	"errors"
	"fmt"

	"repro/internal/wal"
)

// Recover rebuilds a crashed process instance from its WAL records and
// resumes it (§3.3: "Once the failures have been repaired, the process
// execution is resumed from the point where the failure occurred").
//
// Navigation is deterministic, so recovery re-runs the instance from the
// beginning while substituting logged outputs for the program invocations
// that had completed before the crash; programs whose completion was never
// logged are re-executed from the beginning — the paper's caveat about
// activities that are not failure atomic. The resumed instance writes a
// fresh log (newLog) covering the whole execution, so recovery can itself
// be recovered.
//
// The engine must have the same process templates and programs registered
// as the crashed one.
func Recover(e *Engine, records []wal.Record, newLog wal.Log) (*Instance, error) {
	if len(records) == 0 {
		return nil, errors.New("engine: empty log, nothing to recover")
	}
	r := newRecovery(&records[0], len(records)/2)
	if r.err != nil {
		return nil, r.err
	}
	for i := range records {
		rec := &records[i]
		if rec.Instance != r.created.Instance {
			return nil, fmt.Errorf("engine: log mixes instances %q and %q", r.created.Instance, rec.Instance)
		}
		r.add(rec)
	}
	return r.resume(e, newLog)
}

// recovery is one instance being rebuilt from a log: its RecCreated record
// and the replay index of its logged completions. Both point into the
// caller's record slices, which the index keeps alive for the life of the
// instance; nothing is copied.
type recovery struct {
	created *wal.Record
	replay  map[replayKey]*wal.Record
	n       int   // the instance's records, replayed or not
	err     error // the instance's first record is not its RecCreated
	done    bool  // the log holds the instance's RecDone
}

func newRecovery(first *wal.Record, hint int) recovery {
	r := recovery{created: first, replay: make(map[replayKey]*wal.Record, hint)}
	if first.Type != wal.RecCreated {
		r.err = fmt.Errorf("engine: log does not begin with a %q record", wal.RecCreated)
	}
	return r
}

// add indexes the instance's next record.
func (r *recovery) add(rec *wal.Record) {
	r.n++
	switch rec.Type {
	case wal.RecFinishedActivity:
		r.replay[replayKey{rec.Path, rec.Iter}] = rec
	case wal.RecDone:
		r.done = true
	}
}

// resume re-navigates the instance over its replay index. A logged RecDone
// that re-navigation does not reach was written by Cancel: the instance
// stopped where its log ends, so it is canceled there again, and the
// manual activities ready at that point are not offered to anyone.
func (r *recovery) resume(e *Engine, newLog wal.Log) (*Instance, error) {
	tpl, ok := e.template(r.created.Process)
	if !ok {
		return nil, fmt.Errorf("engine: process %q of the crashed instance is not registered", r.created.Process)
	}
	if newLog == nil {
		newLog = &wal.MemLog{}
	}
	in := tpl.plan.input.Clone()
	if err := in.Restore(r.created.Values.Keys, r.created.Values.Vals); err != nil {
		return nil, fmt.Errorf("engine: restoring input container: %w", err)
	}
	in.Freeze()

	e.metrics.recReplayed.Add(int64(r.n))
	inst := newInstance(e, r.created.Instance, tpl, in, newLog)
	inst.replay, inst.replayDone = r.replay, r.done
	if err := inst.Start(); err != nil {
		return inst, err
	}
	if r.done && !inst.done {
		if err := inst.Cancel(); err != nil {
			return inst, err
		}
	}
	return inst, nil
}

// RecoverAllFromCheckpoint recovers every instance of one log from what a
// walk of its recovery ladder found: a checkpoint plus the records logged
// after its cover (wal.History). The log interleaves records from a whole
// fleet — what a shared GroupCommitLog leaves behind — so they are
// demultiplexed by instance ID: each instance appends sequentially, so its
// subsequence is causally ordered even though the fleet's records
// interleave. Instances live at the checkpoint are seeded from their
// snapshot records (their compacted history, wal.Compact semantics, so
// seeding is the same deterministic re-navigation over O(live) records)
// and continued with their tail records; instances created after the
// checkpoint are recovered from the tail alone; instances in cp.Done
// finished inside the covered prefix and are not resurrected. A nil cp is
// the full-replay rung: tail is the whole log. Each instance is recovered
// as Recover would, in order of first appearance; newLog, when non-nil,
// supplies its fresh log (nil gives each an in-memory log).
//
// Recovery stops at the first instance that fails to recover, returning
// the instances recovered so far alongside the error.
func RecoverAllFromCheckpoint(e *Engine, cp *wal.Checkpoint, tail []wal.Record, newLog func(instanceID string) wal.Log) ([]*Instance, error) {
	var done map[string]bool
	var live []wal.Record
	if cp != nil {
		live = cp.Records
		done = make(map[string]bool, len(cp.Done))
		for _, id := range cp.Done {
			done[id] = true
		}
	}
	// Demultiplex by reference: one pass over the checkpoint's records and
	// the tail's indexes each instance's completions where they lie.
	index := make(map[string]int) // instance ID → position in recs
	var recs []recovery
	for _, view := range [2][]wal.Record{live, tail} {
		for i := range view {
			rec := &view[i]
			id := rec.Instance
			if id == "" {
				return nil, errors.New("engine: record without an instance ID")
			}
			if done[id] {
				// A finished instance appends nothing after its RecDone; tail
				// records here mean the checkpoint and the log disagree.
				return nil, fmt.Errorf("engine: tail records for instance %s, which the checkpoint marks finished", id)
			}
			at, seen := index[id]
			if !seen {
				at = len(recs)
				index[id] = at
				recs = append(recs, newRecovery(rec, 0))
			}
			recs[at].add(rec)
		}
	}
	out := make([]*Instance, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		id := r.created.Instance
		if r.err != nil {
			return out, fmt.Errorf("engine: recovering %s: %w", id, r.err)
		}
		var log wal.Log
		if newLog != nil {
			log = newLog(id)
		}
		inst, err := r.resume(e, log)
		if err != nil {
			return out, fmt.Errorf("engine: recovering %s: %w", id, err)
		}
		out = append(out, inst)
	}
	return out, nil
}

// RecoverLadder recovers every instance of one log — a single log file, a
// segment directory or one shard directory of a fleet — by walking its
// recovery ladder (wal.Ladder.Recover: best checkpoint rung, archived
// blobs when the ladder has a store, torn tail truncated) and handing
// what the walk found to RecoverAllFromCheckpoint. It returns the walk
// too, so callers can report the rung, the torn bytes and the instances
// the checkpoint already marks finished.
func RecoverLadder(e *Engine, l wal.Ladder, newLog func(instanceID string) wal.Log) ([]*Instance, *wal.History, error) {
	h, err := l.Recover()
	if err != nil {
		return nil, nil, err
	}
	insts, err := RecoverAllFromCheckpoint(e, h.Checkpoint, h.Tail, newLog)
	return insts, h, err
}
