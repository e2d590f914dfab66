package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// procStart is as close to process start as Go code gets; the first
// set-up is timed from here.
var procStart = time.Now()

// Every run sets up setupRepeats times and reports the median, so that
// setup_s is not one sample; each set-up ends with warmupRounds
// discarded rounds, so that it is seconds of the program's own work and
// not a tenth of a second of process start.
const (
	setupRepeats = 4
	warmupRounds = 2
	minRounds    = 6
)

// params is one run's input. rounds and ops are 0 outside tests: the
// run then makes rounds of the workload's own size until seconds are up.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	spanFile string // traced runs write the last traced round here
	root     string // every directory the run makes is under it
	rounds   int
	ops      int
}

// The exact quantities of a round: deltas of the public obs registry
// (the indexes below cOps), then what the benchmark counts itself.
const (
	cSteps = iota
	cDeadpaths
	cInvocations
	cRebalanced
	cRecords
	cFsyncs
	cBatches
	cBatchRecs
	cRotations
	cWalBytes
	cCkptWrites
	cCkptBytes
	cReplayed
	cOps
	cCompensated
	cDiskBytes
	cReadRecs // traced restart-read rounds only
	cQueries
	cQueryRecsRead
	nCounts
)

type counts [nCounts]int64

var registryCounters = [cOps]string{
	cSteps:       "engine.navigation.steps",
	cDeadpaths:   "engine.deadpath.eliminations",
	cInvocations: "engine.program.invocations",
	cRebalanced:  "engine.fleet.rebalanced",
	cRecords:     "engine.wal.appends",
	cFsyncs:      "wal.fsync_ns", // a histogram: one observation per fsync
	cBatches:     "wal.group.batches",
	cBatchRecs:   "wal.group.records",
	cRotations:   "wal.segments.rotations",
	cWalBytes:    "wal.file.bytes",
	cCkptWrites:  "wal.checkpoint.writes",
	cCkptBytes:   "wal.checkpoint.bytes",
	cReplayed:    "recover.records_replayed",
}

func readRegistry(reg *obs.Registry) counts {
	var c counts
	for i, name := range registryCounters {
		if i == cFsyncs {
			c[i] = reg.Histogram(name).Count()
		} else {
			c[i] = reg.Counter(name).Value()
		}
	}
	return c
}

func (c *counts) add(d counts) {
	for i := range c {
		c[i] += d[i]
	}
}

func (c counts) minus(d counts) counts {
	for i := range c {
		c[i] -= d[i]
	}
	return c
}

// roundOut is what a runner hands back after the timed part of a round.
type roundOut struct {
	elapsed time.Duration
	lat     []time.Duration // one per op
	genLag  []time.Duration // open loop: how late each arrival was submitted
	submit  time.Duration   // total time inside Fleet.Submit
	counts  counts
	// finish releases what the round holds open, checks every op outside
	// the timed part and returns how many failed. The harness measures
	// the live heap before calling it, so the round's engine is still
	// referenced then.
	finish func() (failed int, err error)
}

// runner is one workload after set-up.
type runner interface {
	// round runs one round of fixed size; tr is nil in untraced rounds.
	round(tr *tracer) (*roundOut, error)
	close()
}

// roundStat is one timed round as the harness saw it.
type roundStat struct {
	traced                  bool
	elapsed                 time.Duration
	rate                    float64
	p50, p75, p90, p99      float64 // ms
	genLagP99               float64 // ms
	alloc, heap             uint64
	cpu, submit             time.Duration
	counts                  counts
	attempted, failedVerify int
}

type result struct {
	attempted, failed int
	rounds            int
	opsPerRound       int
	values            map[string]float64
	spans             *spanTotals // traced runs
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedRound runs one round and measures around it.
func timedRound(r runner, tr *tracer) (roundStat, error) {
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	out, err := r.round(tr)
	if err != nil {
		return roundStat{}, err
	}
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	failed, err := out.finish()
	if err != nil {
		return roundStat{}, err
	}
	if tr != nil {
		tr.fold()
	}
	ms := sortedMs(out.lat)
	st := roundStat{
		traced:  tr != nil,
		elapsed: out.elapsed,
		rate:    float64(len(out.lat)) / out.elapsed.Seconds(),
		p50:     bandMean(ms, 0.50), p75: bandMean(ms, 0.75), p90: quantile(ms, 0.90), p99: quantile(ms, 0.99),
		alloc:        m1.TotalAlloc - m0.TotalAlloc,
		heap:         m2.HeapAlloc,
		cpu:          cpu1 - cpu0,
		submit:       out.submit,
		counts:       out.counts,
		attempted:    len(out.lat),
		failedVerify: failed,
	}
	if len(out.genLag) > 0 {
		st.genLagP99 = quantilesMs(out.genLag, 0.99)[0]
	}
	return st, nil
}

// run sets up, measures and verifies one workload and returns every
// metric of the mode: the end-to-end ones always, the per-layer ones
// when traced. A traced run alternates untraced and traced rounds; the
// ratio of their round times is the tracing overhead.
func run(p params) (*result, error) {
	var (
		r      runner
		stages stageTimes
		setups []float64
		res    = &result{values: map[string]float64{}}
	)
	defer func() {
		if r != nil {
			r.close()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		if r != nil {
			r.close()
		}
		var err error
		if r, stages, err = newRunner(p); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		for w := 0; w < warmupRounds; w++ {
			st, err := timedRound(r, nil)
			if err != nil {
				return nil, fmt.Errorf("warm-up round: %w", err)
			}
			res.attempted += st.attempted
			res.failed += st.failedVerify
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var (
		tr     *tracer
		rounds []roundStat
	)
	if p.traced {
		tr = &tracer{}
	}
	measureStart := time.Now()
	for i := 0; ; i++ {
		if p.rounds > 0 {
			if i >= p.rounds {
				break
			}
		} else if i >= minRounds && time.Since(measureStart).Seconds() >= p.seconds {
			break
		}
		var rt *tracer
		if p.traced && i%2 == 1 {
			rt = tr
		}
		st, err := timedRound(r, rt)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		res.attempted += st.attempted
		res.failed += st.failedVerify
		rounds = append(rounds, st)
	}
	res.rounds = len(rounds)
	res.opsPerRound = rounds[0].attempted

	// End-to-end metrics come from the untraced rounds.
	var (
		rates, p50, p75, heap []float64
		alloc                 uint64
		ops                   int
	)
	for _, st := range rounds {
		if st.traced {
			continue
		}
		rates = append(rates, st.rate)
		p50, p75 = append(p50, st.p50), append(p75, st.p75)
		heap = append(heap, float64(st.heap)/(1<<20))
		alloc += st.alloc
		ops += st.attempted
	}
	v := res.values
	v["work_per_s"] = median(rates)
	v["op_p50_ms"] = median(p50)
	v["op_p75_ms"] = median(p75)
	v["alloc_kb_per_op"] = float64(alloc) / float64(ops) / 1024
	v["live_heap_mb"] = median(heap)
	v["setup_s"] = median(setups)
	if !p.traced {
		return res, nil
	}
	res.spans = &tr.totals
	if err := layerValues(v, p, rounds, tr, stages); err != nil {
		return nil, err
	}
	if p.spanFile != "" {
		if err := tr.writeSpans(p.spanFile); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

// layerValues fills in the per-layer metrics of a traced run: exact
// counts over every timed round, timings from the spans of the traced
// rounds, and what the harness says about itself.
func layerValues(v map[string]float64, p params, rounds []roundStat, tr *tracer, stages stageTimes) error {
	var all, tc counts
	var cpu, submit time.Duration
	var plainTimes, tracedTimes, rates, p90, p99, genLag []float64
	for _, st := range rounds {
		all.add(st.counts)
		cpu += st.cpu
		if st.traced {
			tc.add(st.counts)
			submit += st.submit
			tracedTimes = append(tracedTimes, st.elapsed.Seconds())
			continue
		}
		plainTimes = append(plainTimes, st.elapsed.Seconds())
		rates = append(rates, st.rate)
		p90, p99 = append(p90, st.p90), append(p99, st.p99)
		genLag = append(genLag, st.genLagP99)
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	perOp := func(n int64) float64 { return ratio(n, all[cOps]) }
	perKop := func(n int64) float64 { return 1000 * perOp(n) }
	tot := &tr.totals
	spanPerOp := func(ns int64, unit float64) float64 { return ratio(ns, tc[cOps]) / unit }
	spanMean := func(kind int, unit float64) float64 { return ratio(tot.dur[kind], tot.count[kind]) / unit }

	v["engine.nav_us_per_op"] = spanPerOp(tot.self[spInstanceRun], 1e3)
	v["engine.steps_per_op"] = perOp(all[cSteps])
	v["engine.deadpath_per_op"] = perOp(all[cDeadpaths])
	v["engine.compensated_ratio"] = perOp(all[cCompensated])
	v["engine.submit_us_per_op"] = spanPerOp(int64(submit), 1e3)
	v["engine.queue_wait_p50_ms"] = quantilesMs(tr.queueWait, 0.50)[0]
	v["engine.rebalanced_per_kop"] = perKop(all[cRebalanced])
	v["engine.ckpt_passes_per_kop"] = perKop(all[cCkptWrites])
	v["wal.ckpt_write_ms_p50"] = float64(obs.Default.Histogram("wal.checkpoint.duration_ns").Quantile(0.5)) / 1e6
	v["wal.ckpt_bytes_per_kop"] = perKop(all[cCkptBytes])
	v["rm.program_us_per_op"] = spanPerOp(tot.dur[spProgramRun], 1e3)
	v["rm.invocations_per_op"] = perOp(all[cInvocations])
	v["wal.append_wait_us_per_rec"] = spanMean(spWalAppend, 1e3)
	v["wal.records_per_op"] = perOp(all[cRecords])
	v["wal.fsyncs_per_op"] = perOp(all[cFsyncs])
	v["wal.batch_mean_recs"] = ratio(all[cBatchRecs], all[cBatches])
	v["wal.rotations_per_kop"] = perKop(all[cRotations])
	v["wal.bytes_per_op"] = perOp(all[cWalBytes])
	v["wal.disk_kb_per_op_after"] = perOp(all[cDiskBytes]) / 1024
	codec, err := measureCodec(p.seed)
	if err != nil {
		return err
	}
	v["wal.encode_ns_per_rec"] = codec.encodeNs
	v["wal.decode_ns_per_rec"] = codec.decodeNs
	v["wal.frame_bytes_per_rec"] = codec.frameBytes
	v["wal.ckpt_load_ms"] = spanPerOp(tot.dur[spCkptLoad], 1e6)
	v["wal.tail_read_ms"] = spanPerOp(tot.dur[spTailRead], 1e6)
	v["engine.recover_replay_ms"] = spanPerOp(tot.dur[spReplay], 1e6)
	v["wal.read_recs_per_s"] = ratio(tc[cReadRecs], tot.dur[spCkptLoad]+tot.dur[spTailRead]) * 1e9
	v["engine.replayed_recs_per_cycle"] = perOp(all[cReplayed])
	v["history.locate_ms_per_query"] = spanMean(spLocate, 1e6)
	v["history.replay_ms_per_query"] = spanMean(spHistReplay, 1e6)
	v["history.records_read_per_query"] = ratio(all[cQueryRecsRead], all[cQueries])
	v["fmtm.pipeline_ms"] = stages.pipeline.Seconds() * 1e3
	v["fdl.parse_ms"] = stages.parse.Seconds() * 1e3
	v["engine.register_ms"] = stages.register.Seconds() * 1e3
	v["bench.op_p90_ms"] = median(p90)
	v["bench.op_p99_ms"] = median(p99)
	v["bench.gen_lag_p99_ms"] = median(genLag)
	q := quartiles(rates)
	v["bench.round_iqr_ratio"] = (q[2] - q[0]) / q[1]
	v["bench.cpu_ms_per_op"] = cpu.Seconds() * 1e3 / float64(all[cOps])
	v["bench.trace_overhead_ratio"] = median(tracedTimes) / median(plainTimes)
	v["bench.disk_fsync_p50_us"], err = diskFsync(p.root)
	return err
}

// codecTimes is what wal.EncodeRecord and wal.UnmarshalBinary cost on
// the run's own records.
type codecTimes struct {
	encodeNs, decodeNs, frameBytes float64
}

// measureCodec navigates a few hundred instances of the run's traffic
// on a MemLog and times the binary framing of their records, outside
// every round.
func measureCodec(seed uint64) (codecTimes, error) {
	c, err := compile()
	if err != nil {
		return codecTimes{}, err
	}
	e, err := c.newEngine(seed, nil)
	if err != nil {
		return codecTimes{}, err
	}
	log := &wal.MemLog{}
	for op := 0; op < 400; op++ {
		inst, err := e.CreateInstance(c.processOf(op), nil, log)
		if err != nil {
			return codecTimes{}, err
		}
		if err := inst.Start(); err != nil {
			return codecTimes{}, err
		}
	}
	recs := log.Records()
	const reps = 20
	var buf []byte
	frames := make([][]byte, len(recs))
	bytes := 0
	start := time.Now()
	for rep := 0; rep < reps; rep++ {
		for i, rec := range recs {
			if buf, err = wal.EncodeRecord(buf[:0], rec, wal.FormatBinary); err != nil {
				return codecTimes{}, err
			}
			if rep == 0 {
				frames[i] = append([]byte(nil), buf...)
				bytes += len(buf)
			}
		}
	}
	enc := time.Since(start)
	// EncodeRecord frames the payload as u32 length + u32 CRC; the
	// decoder takes the payload alone.
	const frameHeader = 8
	start = time.Now()
	for rep := 0; rep < reps; rep++ {
		for _, f := range frames {
			if _, err := wal.UnmarshalBinary(f[frameHeader:]); err != nil {
				return codecTimes{}, err
			}
		}
	}
	dec := time.Since(start)
	n := float64(reps * len(recs))
	return codecTimes{
		encodeNs:   float64(enc) / n,
		decodeNs:   float64(dec) / n,
		frameBytes: float64(bytes) / float64(len(recs)),
	}, nil
}

// diskFsync is the median time of a small write and fsync on dir's
// device — what flushFS stands in for with a fixed time. It is reported
// so that a reader knows the box; nothing is gated on it.
func diskFsync(dir string) (us float64, err error) {
	f, err := os.CreateTemp(dir, "fsync-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 128)
	took := make([]time.Duration, 200)
	for i := range took {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		took[i] = time.Since(start)
	}
	return quantilesMs(took, 0.5)[0] * 1e3, nil
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (sorted[i+1]-sorted[i])*(pos-float64(i))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles are the three cut points Python's statistics.quantiles(v,
// n=4) gives (the exclusive method), which is how the spread of a
// metric over runs is judged.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var out [3]float64
	if len(s) < 2 {
		if len(s) == 1 {
			out = [3]float64{s[0], s[0], s[0]}
		}
		return out
	}
	for i := 1; i <= 3; i++ {
		pos := float64(i) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		out[i-1] = s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return out
}

// band is half the width of the rank band bandMean averages over.
const band = 0.10

// bandMean is the round's q-th latency quantile, taken as the mean of
// the samples whose rank is within band of q. Op latencies come in
// clusters — a committed saga logs 9 records, Figure 3's first path 16 —
// and a bare sample quantile that falls between two clusters jumps from
// one to the other with the seed: fleet-durable's p50 read 2.5 ms on six
// seeds of ten and 3.3 ms on four. The mean over the band moves with the
// clusters' shares and not by their distance.
func bandMean(sorted []float64, q float64) float64 {
	n := float64(len(sorted))
	lo, hi := int((q-band)*n), int((q+band)*n)
	hi = max(hi, lo+1)
	var sum float64
	for _, x := range sorted[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

func sortedMs(d []time.Duration) []float64 {
	s := make([]float64, len(d))
	for i, x := range d {
		s[i] = float64(x) / 1e6
	}
	sort.Float64s(s)
	return s
}

func quantilesMs(d []time.Duration, qs ...float64) []float64 {
	s := sortedMs(d)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(s, q)
	}
	return out
}

// dirSize sums the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, ent fs.DirEntry, err error) error {
		if err != nil || ent.IsDir() {
			return err
		}
		info, err := ent.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
