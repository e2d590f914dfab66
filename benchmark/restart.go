package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Shape of restart-read's corpora. They are written one instance at a
// time, so each shard's log is the same record sequence for a seed and
// the counts of a cycle repeat exactly. Each shard's log fails crashAt of
// the way through its share plus a seeded number of records below
// crashJitter (about one instance's worth), which leaves its running
// instance cut off at a seeded point and the rest of its share never
// started. The sizes do not hang on the seed: every seed's cycle reads
// and replays about as much, and asks queriesPerShard queries of each
// shard of each corpus, because locating an instance costs a read of
// every shard before its own.
const (
	corpusInstances  = 400
	corpusShards     = 4
	corpusSegmentMax = 500
	crashAt          = 0.92
	crashJitter      = 12
	queriesPerShard  = 2
)

// crashLog fails every append after the first `after`, as a server
// killed at that record would.
type crashLog struct {
	inner wal.Log
	after int
	n     int
}

func (l *crashLog) Append(rec wal.Record) error {
	if l.n >= l.after {
		return wal.ErrCrash
	}
	l.n++
	return l.inner.Append(rec)
}

// query is one time-travel point query and the snapshot the live
// instance had at that boundary.
type query struct {
	src  *history.Source
	id   string
	k    int
	want *engine.InstanceSnapshot
}

// restartRunner runs restart-read. An op is one cycle: recover the
// checkpointed corpus, recover the uncheckpointed one, answer the
// queries.
type restartRunner struct {
	c       *compiled
	seed    uint64
	cycles  int
	dir     string
	ckDir   string // checkpoints plus the tail they leave
	fullDir string // the same history, no checkpoints
	// final is every corpus instance's snapshot after a run without a
	// crash, which is what recovery must reach.
	final           map[string]*engine.InstanceSnapshot
	ckLive, fullAll int // instances each recovery must return
	queries         []query
}

func newRestartRunner(c *compiled, p params, cycles int) (*restartRunner, error) {
	r := &restartRunner{c: c, seed: p.seed, cycles: cycles}
	var err error
	if r.dir, err = os.MkdirTemp(p.root, "restart-read-"); err != nil {
		return nil, err
	}
	r.ckDir, r.fullDir = filepath.Join(r.dir, "ck"), filepath.Join(r.dir, "full")
	if err := r.build(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *restartRunner) close() { os.RemoveAll(r.dir) }

// build writes both corpora and works out what every recovery and
// query must return.
func (r *restartRunner) build() error {
	ids := instanceIDs(corpusInstances)
	process := make(map[string]string, len(ids))
	for op, id := range ids {
		process[id] = r.c.processOf(op)
	}

	// The reference run: every instance navigated to its end without a
	// crash, which also tells how many records a shard's share makes.
	r.final = make(map[string]*engine.InstanceSnapshot, len(ids))
	e, err := r.c.newEngine(r.seed, nil, engine.WithMetrics(obs.NewRegistry()))
	if err != nil {
		return err
	}
	shardRecords := make([]int, corpusShards)
	for _, id := range ids {
		log := &wal.MemLog{}
		inst, err := e.CreateInstanceID(process[id], id, nil, log)
		if err != nil {
			return err
		}
		if err := inst.Start(); err != nil {
			return err
		}
		r.final[id] = inst.Snapshot()
		shardRecords[engine.ShardFor(id, corpusShards)] += log.Len()
	}

	rng := rand.New(rand.NewSource(int64(r.seed)))
	crashes := make([]int, corpusShards)
	for s := range crashes {
		crashes[s] = int(float64(shardRecords[s])*crashAt) + rng.Intn(crashJitter)
	}
	for _, corpus := range []struct {
		dir        string
		checkpoint int
	}{{r.ckDir, corpusSegmentMax}, {r.fullDir, 0}} {
		if err := r.write(corpus.dir, corpus.checkpoint, crashes); err != nil {
			return fmt.Errorf("building %s: %w", corpus.dir, err)
		}
	}

	// What is on disk decides what recovery returns and which instances
	// the bounded view of the checkpointed corpus can answer for.
	inView, onDisk := make([][]string, corpusShards), make([][]string, corpusShards)
	r.ckLive, r.fullAll = 0, 0
	for s := 0; s < corpusShards; s++ {
		dir := filepath.Join(r.ckDir, engine.ShardDirName(s))
		cp, err := wal.LoadCheckpoint(dir)
		if err != nil {
			return err
		}
		if cp == nil {
			return fmt.Errorf("%s: no checkpoint was written", dir)
		}
		tail, _, err := wal.RepairSegments(dir, cp.Cover)
		if err != nil {
			return err
		}
		seen := map[string]bool{}
		for _, rec := range append(append([]wal.Record{}, cp.Records...), tail...) {
			if !seen[rec.Instance] {
				seen[rec.Instance] = true
				inView[s] = append(inView[s], rec.Instance)
			}
		}
		r.ckLive += len(inView[s])

		recs, _, err := wal.RepairSegments(filepath.Join(r.fullDir, engine.ShardDirName(s)), 0)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if rec.Type == wal.RecCreated {
				onDisk[s] = append(onDisk[s], rec.Instance)
			}
		}
		r.fullAll += len(onDisk[s])
	}

	r.queries = r.queries[:0]
	for _, q := range []struct {
		src   *history.Source
		pools [][]string
	}{{&history.Source{WAL: r.ckDir}, inView}, {&history.Source{WAL: r.fullDir}, onDisk}} {
		for _, pool := range q.pools {
			for i := 0; i < queriesPerShard; i++ {
				id := pool[rng.Intn(len(pool))]
				k := 1 + rng.Intn(r.final[id].TrailLen)
				want, err := r.liveSnapshot(process[id], id, k)
				if err != nil {
					return err
				}
				r.queries = append(r.queries, query{src: q.src, id: id, k: k, want: want})
			}
		}
	}
	return nil
}

// write runs the corpus through an engine.Fleet whose shard logs crash.
func (r *restartRunner) write(dir string, checkpointEvery int, crashes []int) error {
	e, err := r.c.newEngine(r.seed, nil, engine.WithMetrics(obs.NewRegistry()))
	if err != nil {
		return err
	}
	f, err := engine.NewFleet(e, engine.FleetConfig{
		Shards: corpusShards, Dir: dir, Parallel: 1, NoRebalance: true,
		Format: wal.FormatBinary, SegmentMaxRecords: corpusSegmentMax, CheckpointEveryRecords: checkpointEvery,
		WrapLog: func(shard int, log wal.Log) wal.Log { return &crashLog{inner: log, after: crashes[shard]} },
	})
	if err != nil {
		return err
	}
	// One instance at a time: a shard's queued instances do not start in
	// the order they were submitted, and the order decides what the crash
	// cuts off. Instances that meet the crash end with wal.ErrCrash; that
	// is the corpus, not a failure.
	done := make(chan struct{})
	for op := 0; op < corpusInstances; op++ {
		if _, err := f.Submit(r.c.processOf(op), nil, func(*engine.Instance, error) { done <- struct{}{} }); err != nil {
			f.Close()
			return err
		}
		<-done
	}
	f.Drain()
	return f.Close()
}

// liveSnapshot navigates one instance without a crash and returns its
// snapshot just after its k-th trail event.
func (r *restartRunner) liveSnapshot(process, id string, k int) (*engine.InstanceSnapshot, error) {
	var snap *engine.InstanceSnapshot
	n := 0
	e, err := r.c.newEngine(r.seed, nil, engine.WithMetrics(obs.NewRegistry()),
		engine.WithTrailObserver(func(inst *engine.Instance, _ engine.Event) {
			if n++; n == k {
				snap = inst.Snapshot()
			}
		}))
	if err != nil {
		return nil, err
	}
	inst, err := e.CreateInstanceID(process, id, nil, wal.Discard)
	if err != nil {
		return nil, err
	}
	if err := inst.Start(); err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, fmt.Errorf("%s has no trail boundary %d", id, k)
	}
	return snap, nil
}

// cycle is what one op leaves behind for checking.
type cycle struct {
	ck, full []*engine.Instance
	answers  []*engine.InstanceSnapshot
	err      error
}

func (r *restartRunner) round(tr *tracer) (*roundOut, error) {
	if tr != nil {
		tr.reset(r.cycles)
	}
	recReg, queryReg := obs.NewRegistry(), obs.NewRegistry()
	discard := func(string) wal.Log { return wal.Discard }
	builder := func(opts ...engine.Option) (*engine.Engine, error) {
		return r.c.newEngine(r.seed, nil, append(opts, engine.WithMetrics(queryReg))...)
	}
	out := &roundOut{lat: make([]time.Duration, r.cycles)}
	cycles := make([]cycle, r.cycles)
	start := time.Now()
	for op := range cycles {
		cy := &cycles[op]
		var t *tree
		if tr != nil {
			t = tr.tree()
			t.open(spOp)
		}
		t0 := time.Now()
		cy.ck, cy.err = r.restart(r.ckDir, recReg, discard, t, spRecoverLadder, &out.counts)
		if cy.err == nil {
			cy.full, cy.err = r.restart(r.fullDir, recReg, discard, t, spRecoverFull, &out.counts)
		}
		for _, q := range r.queries {
			if cy.err != nil {
				break
			}
			var snap *engine.InstanceSnapshot
			var st *history.Stats
			if t == nil {
				snap, _, st, cy.err = q.src.StateAt(builder, q.id, q.k)
			} else {
				// StateAt is these two calls.
				t.open(spQuery)
				t.open(spLocate)
				var recs []wal.Record
				recs, st, cy.err = q.src.Records(q.id)
				t.shut()
				if cy.err == nil {
					t.open(spHistReplay)
					snap, _, cy.err = history.StateAsOf(builder, recs, q.id, q.k)
					t.shut()
				}
				t.shut()
			}
			if st != nil {
				out.counts[cQueryRecsRead] += int64(st.RecordsRead)
			}
			out.counts[cQueries]++
			cy.answers = append(cy.answers, snap)
		}
		out.lat[op] = time.Since(t0)
		if t != nil {
			t.shut()
			tr.ops[op].spans = t.spans
		}
	}
	out.elapsed = time.Since(start)
	out.counts.add(readRegistry(recReg))
	out.counts[cOps] = int64(r.cycles)
	out.finish = func() (int, error) {
		bad := make([]error, len(cycles))
		for op := range cycles {
			bad[op] = r.check(&cycles[op])
		}
		return reportFailures(bad), nil
	}
	return out, nil
}

// restart recovers one corpus on a fresh engine. Untraced it is
// engine.RecoverFleet; traced it makes the three calls RecoverFleet
// makes per shard directory, each under its own span.
func (r *restartRunner) restart(dir string, reg *obs.Registry, newLog func(string) wal.Log, t *tree, kind uint8, c *counts) ([]*engine.Instance, error) {
	if t != nil {
		t.open(kind)
		defer t.shut()
	}
	e, err := r.c.newEngine(r.seed, nil, engine.WithMetrics(reg))
	if err != nil {
		return nil, err
	}
	if t == nil {
		return engine.RecoverFleet(e, dir, newLog)
	}
	dirs, err := engine.ShardDirs(dir)
	if err != nil {
		return nil, err
	}
	var out []*engine.Instance
	for _, d := range dirs {
		t.open(spCkptLoad)
		cp, err := wal.LoadCheckpoint(d)
		t.shut()
		if err != nil {
			return out, err
		}
		cover := 0
		if cp != nil {
			cover = cp.Cover
			c[cReadRecs] += int64(len(cp.Records))
		}
		t.open(spTailRead)
		tail, _, err := wal.RepairSegments(d, cover)
		t.shut()
		if err != nil {
			return out, err
		}
		c[cReadRecs] += int64(len(tail))
		t.open(spReplay)
		insts, err := engine.RecoverAllFromCheckpoint(e, cp, tail, newLog)
		t.shut()
		out = append(out, insts...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// check compares everything a cycle returned with the run that did not
// crash.
func (r *restartRunner) check(cy *cycle) error {
	if cy.err != nil {
		return cy.err
	}
	for _, rec := range []struct {
		name  string
		insts []*engine.Instance
		want  int
	}{{"ck", cy.ck, r.ckLive}, {"full", cy.full, r.fullAll}} {
		if len(rec.insts) != rec.want {
			return fmt.Errorf("recovering %s returned %d instances, want %d", rec.name, len(rec.insts), rec.want)
		}
		for _, inst := range rec.insts {
			if !inst.Snapshot().Equal(r.final[inst.ID()]) {
				return fmt.Errorf("recovering %s: %s differs from the run that did not crash", rec.name, inst.ID())
			}
		}
	}
	for i, q := range r.queries {
		if !cy.answers[i].Equal(q.want) {
			return fmt.Errorf("query %s as of %d differs from the live snapshot", q.id, q.k)
		}
	}
	return nil
}
