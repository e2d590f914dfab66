// Benchmarks B1–B16 of EXPERIMENTS.md, the only implementation of those
// tables, and the tests of their gates that are not rows of the cost
// ledger (ledger_test.go). Regenerate the tables with
//
//	go test -run '^$' -bench . -benchmem ./
//
// B6's worker sweep is the -cpu list: add -cpu 1,2,4,8 to that command.
// A table row is a sub-benchmark and a column a reported metric. A gate
// on a count is a row of the cost ledger or a test here, which go test ./
// runs; a gate on wall clock fails its benchmark, which -benchtime 1x runs
// once.
package exotica_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atm/flexible"
	"repro/internal/atm/gen"
	"repro/internal/atm/saga"
	"repro/internal/engine"
	"repro/internal/fdl"
	"repro/internal/fmtm"
	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rm"
	"repro/internal/sim"
	"repro/internal/txdb"
	"repro/internal/wal"
)

// runInstance creates and starts one instance of the named process and
// fails the benchmark unless it finishes.
func runInstance(b *testing.B, e *engine.Engine, name string, log wal.Log) {
	inst, err := e.CreateInstance(name, nil, log)
	if err == nil {
		err = inst.Start()
	}
	if err != nil || !inst.Finished() {
		b.Fatalf("%s did not finish: %v", name, err)
	}
}

// ---------------------------------------------------------------- B1 ----

func benchNavigate(b *testing.B, proc *model.Process) {
	b.Helper()
	e := sim.NewEngine()
	if err := e.RegisterProcess(proc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runInstance(b, e, proc.Name, wal.Discard)
	}
}

func BenchmarkNavigationChain(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchNavigate(b, sim.Chain(fmt.Sprintf("c%d", n), n))
		})
	}
}

func BenchmarkNavigationFanOutIn(b *testing.B) {
	for _, w := range []int{10, 100} {
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			benchNavigate(b, sim.FanOutIn(fmt.Sprintf("f%d", w), w))
		})
	}
}

func BenchmarkNavigationDPE(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchNavigate(b, sim.DPEChain(fmt.Sprintf("d%d", n), n))
		})
	}
}

// ---------------------------------------------------------------- B2 ----

func BenchmarkSagaNative(b *testing.B) {
	for _, n := range []int{5, 10, 20, 50} {
		for _, abort := range []bool{false, true} {
			b.Run(fmt.Sprintf("n=%d/abort=%v", n, abort), func(b *testing.B) {
				spec := sim.NStepSaga("s", n)
				prep, err := saga.Prepare(spec, fmtm.PureSagaBinding(spec))
				if err != nil {
					b.Fatal(err)
				}
				ex := &saga.Executor{Decider: sagaDecider(n, abort)}
				subtxns := sagaSubtxns(b, n, abort)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ex.Run(prep, nil); err != nil {
						b.Fatal(err)
					}
				}
				reportPerSubtxn(b, subtxns)
			})
		}
	}
}

// sagaDecider aborts T(n/2) on every attempt when abort is set, statelessly
// so it can be reused across b.N iterations.
func sagaDecider(n int, abort bool) rm.Decider {
	if !abort {
		return nil
	}
	victim := fmt.Sprintf("T%d", n/2)
	return deciderFunc(func(name string) rm.Outcome {
		if name == victim {
			return rm.Abort
		}
		return rm.Commit
	})
}

// sagaSubtxns counts the subtransaction attempts of one run of the n-step
// saga: the native executor's history, which the workflow's equals (E1).
func sagaSubtxns(b *testing.B, n int, abort bool) int {
	spec := sim.NStepSaga("s", n)
	rec := &rm.Recorder{}
	if _, err := (&saga.Executor{Decider: sagaDecider(n, abort)}).Execute(spec, fmtm.PureSagaBinding(spec), rec); err != nil {
		b.Fatal(err)
	}
	return len(rec.Events())
}

// reportPerSubtxn reports the benchmark's time per subtransaction attempt,
// so a native executor and its workflow encoding compare per unit of work.
func reportPerSubtxn(b *testing.B, subtxns int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*subtxns), "ns/subtxn")
}

type deciderFunc func(string) rm.Outcome

func (f deciderFunc) Decide(name string) rm.Outcome { return f(name) }

func BenchmarkSagaWorkflow(b *testing.B) {
	for _, n := range []int{5, 10, 20, 50} {
		for _, abort := range []bool{false, true} {
			b.Run(fmt.Sprintf("n=%d/abort=%v", n, abort), func(b *testing.B) {
				spec := sim.NStepSaga("s", n)
				e := engine.New()
				if err := fmtm.RegisterRuntime(e); err != nil {
					b.Fatal(err)
				}
				if err := fmtm.RegisterSaga(e, spec, fmtm.PureSagaBinding(spec), sagaDecider(n, abort), nil); err != nil {
					b.Fatal(err)
				}
				p, err := fmtm.TranslateSaga(spec, fmtm.SagaOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if err := e.RegisterProcess(p); err != nil {
					b.Fatal(err)
				}
				subtxns := sagaSubtxns(b, n, abort)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runInstance(b, e, spec.Name, wal.Discard)
				}
				reportPerSubtxn(b, subtxns)
			})
		}
	}
}

// ---------------------------------------------------------------- B3 ----

// flexDecider statically forces one of the Figure 3 scenarios.
func flexDecider(abortSub string) rm.Decider {
	if abortSub == "" {
		return nil
	}
	return deciderFunc(func(name string) rm.Outcome {
		if name == abortSub {
			return rm.Abort
		}
		return rm.Commit
	})
}

// flexSubtxns counts the subtransaction attempts of one run of Figure 3
// with abortSub aborting: the native executor's history, which the
// workflow's equals (E2).
func flexSubtxns(b *testing.B, abortSub string) int {
	spec := sim.Fig3Flexible()
	rec := &rm.Recorder{}
	if _, err := (&flexible.Executor{Decider: flexDecider(abortSub)}).Execute(spec, fmtm.PureFlexibleBinding(spec), rec); err != nil {
		b.Fatal(err)
	}
	return len(rec.Events())
}

func BenchmarkFlexibleNative(b *testing.B) {
	for _, sc := range []struct{ name, abort string }{
		{"p1", ""}, {"p2_via_T8", "T8"}, {"p3_via_T4", "T4"}, {"abort_via_T2", "T2"},
	} {
		b.Run(sc.name, func(b *testing.B) {
			spec := sim.Fig3Flexible()
			prep, err := flexible.Prepare(spec, fmtm.PureFlexibleBinding(spec))
			if err != nil {
				b.Fatal(err)
			}
			ex := &flexible.Executor{Decider: flexDecider(sc.abort)}
			subtxns := flexSubtxns(b, sc.abort)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Run(prep, nil); err != nil {
					b.Fatal(err)
				}
			}
			reportPerSubtxn(b, subtxns)
		})
	}
}

func BenchmarkFlexibleWorkflow(b *testing.B) {
	for _, sc := range []struct{ name, abort string }{
		{"p1", ""}, {"p2_via_T8", "T8"}, {"p3_via_T4", "T4"}, {"abort_via_T2", "T2"},
	} {
		b.Run(sc.name, func(b *testing.B) {
			spec := sim.Fig3Flexible()
			e := engine.New()
			if err := fmtm.RegisterRuntime(e); err != nil {
				b.Fatal(err)
			}
			if err := fmtm.RegisterFlexible(e, spec, fmtm.PureFlexibleBinding(spec), flexDecider(sc.abort), nil); err != nil {
				b.Fatal(err)
			}
			p, err := fmtm.TranslateFlexible(spec)
			if err != nil {
				b.Fatal(err)
			}
			if err := e.RegisterProcess(p); err != nil {
				b.Fatal(err)
			}
			subtxns := flexSubtxns(b, sc.abort)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runInstance(b, e, spec.Name, wal.Discard)
			}
			reportPerSubtxn(b, subtxns)
		})
	}
}

// ---------------------------------------------------------------- B4 ----

func BenchmarkTranslateSaga(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			spec := sim.NStepSaga("s", n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fmtm.TranslateSaga(spec, fmtm.SagaOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTranslateFlexible translates a spec of at least subs
// subtransactions per row and reports how many it has (subtxns): no two
// rows may time the same size.
func BenchmarkTranslateFlexible(b *testing.B) {
	rows := map[int]int{} // subtransactions → the row that drew them
	for _, subs := range []int{4, 16, 64} {
		spec := flexibleOfAtLeast(b, subs)
		if row, dup := rows[len(spec.Subs)]; dup {
			b.Fatalf("rows subs=%d and subs=%d both translate %d subtransactions", row, subs, len(spec.Subs))
		}
		rows[len(spec.Subs)] = subs
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fmtm.TranslateFlexible(spec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(spec.Subs)), "subtxns")
		})
	}
}

// flexibleOfAtLeast returns the flexible transaction of the first seed
// whose draw, bounded by subs subtransactions in all and on one path, has
// at least subs of them (seeds 1, 2 and 3 draw 4, 17 and 70 for 4, 16 and
// 64).
func flexibleOfAtLeast(b *testing.B, subs int) *flexible.Spec {
	b.Helper()
	for seed := int64(1); seed <= 1000; seed++ {
		spec := gen.New(gen.Flexible, seed, gen.Config{MaxSteps: subs, MaxDepth: subs, MaxBranch: 3}).Flexible
		if len(spec.Subs) >= subs {
			return spec
		}
	}
	b.Fatalf("no seed up to 1000 draws a flexible transaction of %d subtransactions", subs)
	return nil
}

func BenchmarkFDLExport(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p, err := fmtm.TranslateSaga(sim.NStepSaga("s", n), fmtm.SagaOptions{})
			if err != nil {
				b.Fatal(err)
			}
			file := &fdl.File{Types: p.Types, Processes: []*model.Process{p}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = fdl.Export(file)
			}
		})
	}
}

func BenchmarkFDLParse(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p, err := fmtm.TranslateSaga(sim.NStepSaga("s", n), fmtm.SagaOptions{})
			if err != nil {
				b.Fatal(err)
			}
			text := fdl.Export(&fdl.File{Types: p.Types, Processes: []*model.Process{p}})
			b.SetBytes(int64(len(text)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fdl.Parse(text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------- B5 ----

func BenchmarkRecoveryReplay(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := sim.NewEngine()
			proc := sim.Chain(fmt.Sprintf("c%d", n), n)
			if err := e.RegisterProcess(proc); err != nil {
				b.Fatal(err)
			}
			log := &wal.MemLog{}
			runInstance(b, e, proc.Name, log)
			records := log.Records()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := engine.Recover(e, records, wal.Discard)
				if err != nil || !rec.Finished() {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWALMarshal(b *testing.B) {
	rec := wal.Record{
		Type: wal.RecFinishedActivity, Instance: "inst-1", Path: "Forward#0/T7", Iter: 3,
		Values: defaultContainerValues(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wal.Marshal(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------- B6 ----

func BenchmarkTxDBCommit(b *testing.B) {
	s := txdb.Open("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := s.Do(func(tx *txdb.Tx) error {
			return tx.Put(fmt.Sprintf("k%d", i%1024), "v")
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxDBContention runs one read-then-upgrade transaction per op on
// GOMAXPROCS workers (the -cpu flag is the worker sweep). Reading k1 and
// writing it last is a lock conversion, so on a small keyspace concurrent
// transactions deadlock; deadlocks/op reports how often.
func BenchmarkTxDBContention(b *testing.B) {
	for _, keys := range []int{4, 1024} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			s := txdb.Open("bench")
			var seq atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				r := rand.New(rand.NewSource(seq.Add(1)))
				for pb.Next() {
					k1 := fmt.Sprintf("k%d", r.Intn(keys))
					k2 := fmt.Sprintf("k%d", r.Intn(keys))
					_ = s.DoRetry(50, func(tx *txdb.Tx) error {
						if _, _, err := tx.Get(k1); err != nil {
							return err
						}
						// Widen the window between lock acquisitions so
						// transactions actually overlap.
						runtime.Gosched()
						if err := tx.Put(k2, "v"); err != nil {
							return err
						}
						return tx.Put(k1, "v")
					})
				}
			})
			_, _, deadlocks := s.Stats()
			b.ReportMetric(float64(deadlocks)/float64(b.N), "deadlocks/op")
		})
	}
}

// ---------------------------------------------------------------- B7 ----

func BenchmarkAblationWAL(b *testing.B) {
	const n = 200
	e := sim.NewEngine()
	proc := sim.Chain("live", n)
	if err := e.RegisterProcess(proc); err != nil {
		b.Fatal(err)
	}
	b.Run("wal=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runInstance(b, e, "live", wal.Discard)
		}
	})
	b.Run("wal=mem", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runInstance(b, e, "live", &wal.MemLog{})
		}
	})
	b.Run("wal=file", func(b *testing.B) {
		l, err := wal.OpenFileLog(filepath.Join(b.TempDir(), "ablation.wal"))
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runInstance(b, e, "live", l)
		}
	})
}

func BenchmarkAblationDeadPath(b *testing.B) {
	const n = 200
	e := sim.NewEngine()
	if err := e.RegisterProcess(sim.Chain("live", n)); err != nil {
		b.Fatal(err)
	}
	if err := e.RegisterProcess(sim.DPEChain("dead", n)); err != nil {
		b.Fatal(err)
	}
	// Executed activities vs. dead-path-eliminated activities: the latter
	// skip program invocation, container construction and logging.
	for _, name := range []string{"live", "dead"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runInstance(b, e, name, wal.Discard)
			}
		})
	}
}

// ---------------------------------------------------------------- B8 ----

func BenchmarkConcurrentScheduler(b *testing.B) {
	const width = 8
	const latency = 2 * time.Millisecond
	for _, pool := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			e := engine.New(engine.WithConcurrency(pool))
			if err := e.RegisterProgram("ok", sim.OKProgram); err != nil {
				b.Fatal(err)
			}
			if err := e.RegisterProgram("slow", engine.ProgramFunc(func(inv *engine.Invocation) error {
				time.Sleep(latency)
				inv.Out.SetRC(0)
				return nil
			})); err != nil {
				b.Fatal(err)
			}
			proc := sim.FanOutIn("fan", width)
			for _, a := range proc.Activities {
				if a.Name != "A" && a.Name != "Z" {
					a.Program = "slow"
				}
			}
			if err := e.RegisterProcess(proc); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runInstance(b, e, "fan", wal.Discard)
			}
		})
	}
}

func BenchmarkWALCompact(b *testing.B) {
	e := sim.NewEngine()
	proc := sim.Chain("c1000", 1000)
	if err := e.RegisterProcess(proc); err != nil {
		b.Fatal(err)
	}
	log := &wal.MemLog{}
	runInstance(b, e, "c1000", log)
	records := log.Records()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := wal.Compact(records); len(got) >= len(records) {
			b.Fatal("compaction removed nothing")
		}
	}
}

// ---------------------------------------------------------------- B9 ----

// chain is the process of B9–B11, B15 and B16: a 20-step chain, whose
// instance logs chainRecs records.
var chain = sim.Chain("chain", 20)

const chainRecs = 2*20 + 2

// chainEngine builds an engine with opts that runs chain.
func chainEngine(opts ...engine.Option) (*engine.Engine, error) {
	e := engine.New(opts...)
	if err := e.RegisterProgram("ok", sim.OKProgram); err != nil {
		return nil, err
	}
	return e, e.RegisterProcess(chain)
}

// newChainEngine is chainEngine for a benchmark or a test.
func newChainEngine(tb testing.TB, opts ...engine.Option) *engine.Engine {
	tb.Helper()
	e, err := chainEngine(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// durableFlush is what every sync of B9's and B11's log waits, on any
// disk: the 200 µs flush of the fleet-durable workload.
const durableFlush = 200 * time.Microsecond

// flushFS creates real files whose Sync waits a fixed time instead of
// going to the device.
type flushFS struct{ flush time.Duration }

type flushFile struct {
	*os.File
	flush time.Duration
}

func (fs flushFS) Create(path string) (wal.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return flushFile{f, fs.flush}, nil
}

func (flushFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Sync sleeps out the flush: a goroutine blocked in fsync holds no CPU,
// so the fleet's workers fill the next batch meanwhile. The timer rounds
// the sleep up to its granularity (a 200 µs flush took 1.2 ms on a 2-vCPU
// Xeon box), which lengthens every flush alike. A flush that spins for
// exactly 200 µs, as fleet-durable's does, competes with the workers for
// CPU: group commit's sync count at fleet 32 then read 43–107 over 70
// runs, against 44–86 over 80 runs sleeping.
func (f flushFile) Sync() error {
	time.Sleep(f.flush)
	return nil
}

// durableRun is what one run of a durable fleet logged.
type durableRun struct {
	records int64
	syncs   int64
	batches int64 // group-commit batches; 0 without group commit
}

// runDurableFleet runs fleet instances of chain on e as a one-shard
// fleet of up to 16 workers sharing one fsyncing FileLog in dir, over a
// flushFS of durableFlush: behind a GroupCommitLog when group is set,
// else every append waits out its own sync.
func runDurableFleet(tb testing.TB, e *engine.Engine, dir string, fleet int, group bool) durableRun {
	tb.Helper()
	reg := obs.NewRegistry()
	flog, err := wal.OpenFileLog(filepath.Join(dir, "fleet.wal"), wal.WithFsync(),
		wal.WithFS(flushFS{durableFlush}), wal.WithMetricsRegistry(reg))
	if err != nil {
		tb.Fatal(err)
	}
	var log wal.Log = flog
	closeLog := flog.Close
	if group {
		g := wal.NewGroupCommitLog(flog, wal.GroupWithMetricsRegistry(reg))
		log, closeLog = g, g.Close
	}
	f, err := engine.NewFleet(e, engine.FleetConfig{Shards: 1, Parallel: min(fleet, 16),
		WrapLog: func(int, wal.Log) wal.Log { return log }})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := f.Run(chain.Name, fleet, nil)
	if err == nil && res.Failed > 0 {
		err = fmt.Errorf("%d of %d instances failed: %v", res.Failed, fleet, res.Err)
	}
	if err := errors.Join(err, f.Close(), closeLog()); err != nil {
		tb.Fatal(err)
	}
	return durableRun{
		records: reg.Counter("wal.file.appends").Value(),
		syncs:   reg.Histogram("wal.fsync_ns").SnapshotNow().Count,
		batches: reg.Counter("wal.group.batches").Value(),
	}
}

// BenchmarkFleetGroupCommit is B9: fleets of 1, 8 and 32 instances on a
// shared durable log, every append waiting out its own sync against group
// commit, which syncs once per batch and grows its batches while a sync
// is in flight. Its gate, at least 5x fewer syncs at fleet 32, is a row
// of the cost ledger (ledger_test.go).
func BenchmarkFleetGroupCommit(b *testing.B) {
	for _, fleet := range []int{1, 8, 32} {
		var perRecord float64 // records/s of the row before
		for _, group := range []bool{false, true} {
			mode := map[bool]string{false: "per-record-fsync", true: "group-commit"}[group]
			b.Run(fmt.Sprintf("fleet=%d/%s", fleet, mode), func(b *testing.B) {
				e, dir := newChainEngine(b), b.TempDir()
				var sum durableRun
				for i := 0; i < b.N; i++ {
					run := runDurableFleet(b, e, dir, fleet, group)
					sum.records += run.records
					sum.syncs += run.syncs
					sum.batches += run.batches
				}
				secs := b.Elapsed().Seconds()
				rps := float64(sum.records) / secs
				b.ReportMetric(rps, "records/s")
				b.ReportMetric(float64(fleet*b.N)/secs, "instances/s")
				b.ReportMetric(float64(sum.syncs)/float64(b.N), "syncs/op")
				if !group {
					perRecord = rps
					return
				}
				b.ReportMetric(float64(sum.records)/float64(sum.batches), "mean-batch")
				if perRecord > 0 {
					b.ReportMetric(rps/perRecord, "speedup-x")
				}
			})
		}
	}
}

// ---------------------------------------------------------------- B10 ---

// crashedCorpus leaves in a fresh directory what a server leaves that dies
// half-way through the last of n instances of chain, run one after
// another over a segmented log, checkpointed every 64 records when ckpt is
// set (sim.CrashedFleet). It returns the directory and the crashed
// instance's ID.
func crashedCorpus(tb testing.TB, n int, ckpt bool) (dir, id string) {
	tb.Helper()
	dir = filepath.Join(tb.TempDir(), "wal")
	id, err := sim.CrashedFleet(chainEngine, chain.Name, dir, n, ckpt)
	if err != nil {
		tb.Fatalf("crashed corpus of %d (checkpointed %v): %v", n, ckpt, err)
	}
	return dir, id
}

// restart recovers the n instances of a crashed corpus through the ladder,
// from its newest checkpoint when ckpt is set, and returns what the walk
// read.
func restart(tb testing.TB, dir string, n int, ckpt bool) *wal.History {
	tb.Helper()
	insts, h, err := engine.RecoverLadder(newChainEngine(tb), wal.Ladder{Path: dir}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if len(insts)+len(h.Done()) != n || ckpt != (h.Checkpoint != nil) {
		tb.Fatalf("recovered %d + %d checkpointed done of %d instances (checkpoint %v, want %v)",
			len(insts), len(h.Done()), n, h.Checkpoint != nil, ckpt)
	}
	return h
}

// BenchmarkRestart is B10: restarting a crashed history of 8, 32 and 128
// instances by full replay against from the newest checkpoint plus the
// segment tail. Its gate, at least 10x fewer records replayed at 128
// instances, is a row of the cost ledger (ledger_test.go).
func BenchmarkRestart(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		var full int // records the full replay of the row before read
		for _, ckpt := range []bool{false, true} {
			mode := map[bool]string{false: "full-replay", true: "checkpointed"}[ckpt]
			b.Run(fmt.Sprintf("n=%d/%s", n, mode), func(b *testing.B) {
				dir, _ := crashedCorpus(b, n, ckpt)
				size := sim.SegmentBytes(dir)
				b.ResetTimer()
				var h *wal.History
				for i := 0; i < b.N; i++ {
					h = restart(b, dir, n, ckpt)
				}
				b.ReportMetric(float64(n*chainRecs), "history-recs")
				b.ReportMetric(float64(h.Len()), "replayed-recs")
				b.ReportMetric(float64(size), "wal-bytes")
				if !ckpt {
					full = h.Len()
				} else if full > 0 {
					b.ReportMetric(float64(full)/float64(h.Len()), "replay-ratio-x")
				}
			})
		}
	}
}

// ---------------------------------------------------------------- B11 ---

// BenchmarkObservability is B11: the fleet-32 group-commit run of B9 with
// nothing on the event bus (one atomic load per would-be publish), with
// the flight recorder as a synchronous tap, and with a subscriber that
// JSON-encodes every event off a bounded queue, the shape of wfrun's
// /events. That a synchronous tap drops nothing is
// obs.TestBusSynchronousTapSeesEverything.
func BenchmarkObservability(b *testing.B) {
	var idle float64 // records/s with nothing attached
	for _, mode := range []string{"idle", "flight-recorder", "sse-subscriber"} {
		b.Run(mode, func(b *testing.B) {
			bus := obs.NewBus()
			var drained sync.WaitGroup
			switch mode {
			case "flight-recorder":
				defer bus.Attach(obs.NewRecorder(obs.DefaultRecorderSize).Record)()
			case "sse-subscriber":
				sub := bus.Subscribe(256)
				enc := json.NewEncoder(io.Discard)
				drained.Add(1)
				go func() {
					defer drained.Done()
					for ev := range sub.Events() {
						_ = enc.Encode(ev)
					}
				}()
				defer drained.Wait()
				defer bus.Unsubscribe(sub)
			}
			e, dir := newChainEngine(b, engine.WithBus(bus)), b.TempDir()
			var records int64
			for i := 0; i < b.N; i++ {
				records += runDurableFleet(b, e, dir, 32, true).records
			}
			rps := float64(records) / b.Elapsed().Seconds()
			b.ReportMetric(rps, "records/s")
			b.ReportMetric(float64(bus.Published())/float64(b.N), "events/op")
			b.ReportMetric(float64(bus.Dropped()), "drops")
			if mode == "idle" {
				idle = rps
			} else if idle > 0 {
				b.ReportMetric(rps/idle, "vs-idle-x")
			}
		})
	}
}

// ---------------------------------------------------------------- B12 ---

// offered is what offered-load runs through a fleet saw (B12, B14).
type offered struct {
	accepted, shed int
	rebalanced     int64
	lat            []time.Duration // arrival to completion, accepted instances only
}

func (o *offered) add(r offered) {
	o.accepted += r.accepted
	o.shed += r.shed
	o.rebalanced += r.rebalanced
	o.lat = append(o.lat, r.lat...)
}

// offerLoad submits n instances of process to f and waits for the fleet
// to drain. interval > 0 is an open loop on an absolute schedule: arrival
// i fires at start + i*interval however the fleet is coping, and latency
// counts from the scheduled arrival, so pacing overshoot counts against
// the fleet and coordinated omission cannot flatter it. interval <= 0 is a
// closed loop: an arrival is the moment Submit is called. Whether a full
// fleet blocks or sheds is its FleetConfig.Shed.
func offerLoad(tb testing.TB, f *engine.Fleet, process string, n int, interval time.Duration) offered {
	tb.Helper()
	lat := make([]time.Duration, n) // a slot per arrival, written on completion
	var out offered
	start := time.Now()
	for i := 0; i < n; i++ {
		arrive := time.Now()
		if interval > 0 {
			arrive = start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(arrive))
		}
		_, err := f.Submit(process, nil, func(_ *engine.Instance, err error) {
			if err == nil {
				lat[i] = time.Since(arrive)
			}
		})
		if err == nil {
			out.accepted++
		} else if !errors.Is(err, engine.ErrOverloaded) {
			tb.Fatalf("arrival %d: %v", i, err)
		}
	}
	f.Drain()
	st := f.Stats()
	out.shed, out.rebalanced = int(st.Shed), st.Rebalanced
	for _, d := range lat {
		if d > 0 {
			out.lat = append(out.lat, d)
		}
	}
	if len(out.lat) != out.accepted {
		tb.Fatalf("accepted %d instances but %d completed", out.accepted, len(out.lat))
	}
	return out
}

// quantile returns the p-th quantile (0 < p <= 1) of sorted, exactly.
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(int(float64(len(sorted))*p+0.5)-1, 0), len(sorted)-1)]
}

// reportOffered reports what b.N offered-load runs saw, per run, and
// returns the accepted p99.
func reportOffered(b *testing.B, out offered) time.Duration {
	slices.Sort(out.lat)
	p99 := quantile(out.lat, 0.99)
	b.ReportMetric(float64(out.accepted)/float64(b.N), "accepted/op")
	b.ReportMetric(float64(out.shed)/float64(b.N), "shed/op")
	b.ReportMetric(quantile(out.lat, 0.50).Seconds()*1e3, "p50-ms")
	b.ReportMetric(p99.Seconds()*1e3, "p99-ms")
	return p99
}

// sleepingEngine returns an engine whose program "ok" sleeps service and
// commits, running proc.
func sleepingEngine(tb testing.TB, proc *model.Process, service time.Duration) *engine.Engine {
	tb.Helper()
	e := engine.New()
	if err := e.RegisterProgram("ok", engine.ProgramFunc(func(inv *engine.Invocation) error {
		time.Sleep(service)
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		tb.Fatal(err)
	}
	if err := e.RegisterProcess(proc); err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkOverload is B12: a one-shard fleet of 4 workers serves
// one-activity instances of 2 ms, a capacity of 2,000 instances/s. The
// baseline runs closed loop at that capacity; the other rows offer twice
// it open loop, to a bounded queue of 8 that sheds and to a queue that
// holds every arrival, whose backlog turns into latency. Its gates are on
// wall clock: the bounded queue sheds, keeps its accepted p99 within 4x
// (service + full-queue drain) and its goodput within 10% of the
// baseline; the unbounded queue sheds nothing.
func BenchmarkOverload(b *testing.B) {
	const (
		workers  = 4
		service  = 2 * time.Millisecond
		maxQueue = 2 * workers
		overN    = 800 // open-loop arrivals at 2x capacity
	)
	proc := sim.Chain("overload", 1)
	// Warm-up: a process's first offered-load run is slower to serve (a
	// shed row run first accepted ~270 of 800 arrivals instead of ~357,
	// at a p99 past the bound), so every row runs warm, whichever -bench
	// selects.
	warm, err := engine.NewFleet(sleepingEngine(b, proc, service), engine.FleetConfig{Shards: 1, Parallel: workers})
	if err != nil {
		b.Fatal(err)
	}
	offerLoad(b, warm, proc.Name, 400, 0)
	if err := warm.Close(); err != nil {
		b.Fatal(err)
	}
	var baseline float64 // tasks/s of the closed loop
	for _, row := range []struct {
		name     string
		queue, n int
		interval time.Duration
	}{
		{"baseline", 0, 400, 0},
		{"shed", maxQueue, overN, service / (2 * workers)},
		{"unbounded", overN, overN, service / (2 * workers)},
	} {
		b.Run(row.name, func(b *testing.B) {
			e := sleepingEngine(b, proc, service)
			var out offered
			for i := 0; i < b.N; i++ {
				f, err := engine.NewFleet(e, engine.FleetConfig{
					Shards: 1, Parallel: workers, MaxQueue: row.queue, Shed: row.interval > 0})
				if err != nil {
					b.Fatal(err)
				}
				out.add(offerLoad(b, f, proc.Name, row.n, row.interval))
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
			}
			tps := float64(out.accepted) / b.Elapsed().Seconds()
			b.ReportMetric(tps, "tasks/s")
			p99 := reportOffered(b, out)
			switch row.name {
			case "baseline":
				baseline = tps
			case "shed":
				if out.shed == 0 {
					b.Fatal("nothing shed at 2x offered load with a bounded queue")
				}
				if limit := 4 * (service + maxQueue/workers*service); p99 > limit {
					b.Fatalf("accepted p99 %v exceeds %v", p99, limit)
				}
				if baseline > 0 {
					b.ReportMetric(tps/baseline, "goodput-x")
					if tps < 0.9*baseline {
						b.Fatalf("goodput %.2fx of the baseline, want >= 0.9", tps/baseline)
					}
				}
			case "unbounded":
				if out.shed != 0 || out.accepted != overN*b.N {
					b.Fatalf("accepted %d and shed %d of %d arrivals", out.accepted, out.shed, overN*b.N)
				}
			}
		})
	}
}

// ---------------------------------------------------------------- B13 ---

// benchRecord is the representative navigation-step record the B13
// encode/decode/append benchmarks measure.
func benchRecord() wal.Record {
	return wal.Record{
		Type: wal.RecFinishedActivity, Instance: "inst-000042", Path: "Book/Flight", Iter: 1,
		Values: defaultContainerValues(),
	}
}

// defaultContainerValues is a default-type container as the engine hands it
// to the log: the layout's paths and a copy of the slots.
func defaultContainerValues() wal.Values {
	c, err := sim.Chain("x", 1).Types.NewContainer(model.DefaultType)
	if err != nil {
		panic(err)
	}
	keys, vals := c.Vector()
	return wal.Values{Keys: keys, Vals: vals}
}

// encodedLog is n copies of rec framed in f, as a log file holds them.
func encodedLog(tb testing.TB, rec wal.Record, f wal.Format, n int) []byte {
	var data []byte
	if f == wal.FormatBinary {
		data = append(data, wal.FileHeader(f)...)
	}
	for i := 0; i < n; i++ {
		var err error
		if data, err = wal.EncodeRecord(data, rec, f); err != nil {
			tb.Fatal(err)
		}
	}
	return data
}

func BenchmarkWALEncode(b *testing.B) {
	rec := benchRecord()
	for _, f := range []wal.Format{wal.FormatText, wal.FormatBinary} {
		b.Run(f.String(), func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = wal.EncodeRecord(buf[:0], rec, f)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWALDecode(b *testing.B) {
	rec := benchRecord()
	const n = 1000
	for _, f := range []wal.Format{wal.FormatText, wal.FormatBinary} {
		b.Run(f.String(), func(b *testing.B) {
			data := encodedLog(b, rec, f, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, err := wal.ReadAll(bytes.NewReader(data))
				if err != nil || len(recs) != n {
					b.Fatalf("%d records, %v", len(recs), err)
				}
			}
		})
	}
}

// BenchmarkWALFileAppend is the end-to-end append hot path without
// per-record fsync (the group-commit regime). B13's zero-alloc gate is
// the cost ledger's wal-append-binary row (ledger_test.go).
func BenchmarkWALFileAppend(b *testing.B) {
	rec := benchRecord()
	for _, f := range []wal.Format{wal.FormatText, wal.FormatBinary} {
		b.Run(f.String(), func(b *testing.B) {
			l, err := wal.OpenFileLog(filepath.Join(b.TempDir(), "bench.wal"), wal.WithFormat(f))
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBinaryFramingRatios holds B13's ratio gates, which the benchmarks
// above cannot at one iteration: binary encode and decode at least 2x the
// text framing's speed, and binary append without fsync at least 0.95x.
// Each framing times a fixed batch, best of three, some 30 ms in all.
func TestBinaryFramingRatios(t *testing.T) {
	rec := benchRecord()
	best := func(f func()) time.Duration {
		top := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			f()
			top = min(top, time.Since(start))
		}
		return top
	}
	const n = 1000
	var enc, dec, app [2]time.Duration
	for i, f := range []wal.Format{wal.FormatText, wal.FormatBinary} {
		var buf []byte
		enc[i] = best(func() {
			for j := 0; j < n; j++ {
				buf, _ = wal.EncodeRecord(buf[:0], rec, f)
			}
		})
		data := encodedLog(t, rec, f, n)
		dec[i] = best(func() {
			if recs, err := wal.ReadAll(bytes.NewReader(data)); err != nil || len(recs) != n {
				t.Fatalf("%s: read %d records, %v", f, len(recs), err)
			}
		})
		l, err := wal.OpenFileLog(filepath.Join(t.TempDir(), "append.wal"), wal.WithFormat(f))
		if err != nil {
			t.Fatal(err)
		}
		app[i] = best(func() {
			for j := 0; j < n; j++ {
				if err := l.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
		})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []struct {
		name      string
		text, bin time.Duration
		atLeast   float64
	}{
		{"encode", enc[0], enc[1], 2},
		{"decode", dec[0], dec[1], 2},
		{"file append", app[0], app[1], 0.95},
	} {
		ratio := float64(g.text) / float64(g.bin)
		t.Logf("%s of %d records: text %v, binary %v, %.1fx", g.name, n, g.text, g.bin, ratio)
		if ratio < g.atLeast {
			t.Errorf("binary %s %.2fx the text framing's speed, want >= %gx", g.name, ratio, g.atLeast)
		}
	}
}

// ---------------------------------------------------------------- B14 ---

// B14's workload: a chain of shardChain activities whose program sleeps
// shardService, so an instance costs 20 ms of worker time and 10 records.
// A shard brings shardWorkers workers and its own group-commit segmented
// log: its capacity is 2/(4*5 ms) = 100 instances/s by construction, and
// shards share nothing on the execute or append path. The service time is
// large against the Go timer's wakeup granularity (~1 ms on a loaded box),
// so it, not timer overhead, sets a shard's capacity.
const (
	shardChain   = 4
	shardService = 5 * time.Millisecond
	shardWorkers = 2
	shardQueue   = 8 // admission queue beyond the worker slots, per shard
)

var shardProc = sim.Chain("shard", shardChain)

// shardFleet opens a fleet of shards rooted in a fresh directory that runs
// shardProc on e; shed adds the shedding admission policy.
func shardFleet(tb testing.TB, e *engine.Engine, shards int, shed bool) *engine.Fleet {
	tb.Helper()
	cfg := engine.FleetConfig{Shards: shards, Dir: filepath.Join(tb.TempDir(), "wal"),
		Parallel: shardWorkers, MaxQueue: shardQueue, GroupCommit: true}
	if shed {
		cfg.HotQueue, cfg.Shed = shardWorkers+shardQueue/2, true
	}
	f, err := engine.NewFleet(e, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// shardClosedLoop runs calN instances closed loop through one shard and
// returns how long they took.
func shardClosedLoop(tb testing.TB, e *engine.Engine, calN int) time.Duration {
	f := shardFleet(tb, e, 1, false)
	res, err := f.Run(shardProc.Name, calN, nil)
	if err == nil && res.Finished != calN {
		err = fmt.Errorf("finished %d of %d: %v", res.Finished, calN, res.Err)
	}
	if err := errors.Join(err, f.Close()); err != nil {
		tb.Fatal(err)
	}
	return res.Elapsed
}

// BenchmarkShardScaling is B14: the closed-loop row measures one shard's
// capacity C1; every other row offers 4.5*C1 arrivals/s open loop, with
// shedding, to 1, 2, 4 and 8 shards. One shard saturates and sheds, wider
// fleets turn the same load into throughput. Its gates are on wall clock:
// the 1-shard row sheds, 4 shards log at least 3x its records/s, and
// every row's accepted p99 stays within 4x (chain service + full-queue
// drain), B12's bound.
func BenchmarkShardScaling(b *testing.B) {
	const calN = 60
	e := sleepingEngine(b, shardProc, shardService)
	var capacity float64 // one shard's instances/s, closed loop
	b.Run("closed-loop", func(b *testing.B) {
		var took time.Duration
		for i := 0; i < b.N; i++ {
			took += shardClosedLoop(b, e, calN)
		}
		capacity = float64(calN*b.N) / took.Seconds()
		b.ReportMetric(capacity*(2*shardChain+2), "records/s")
	})
	if capacity == 0 {
		capacity = calN / shardClosedLoop(b, e, calN).Seconds()
	}
	rate := 4.5 * capacity
	n := max(200, int(rate/2)) // half a second of arrivals
	perInstance := shardChain * shardService
	bound := 4 * (perInstance + shardQueue/shardWorkers*perInstance)
	var one float64 // records/s of one shard
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var out offered
			for i := 0; i < b.N; i++ {
				f := shardFleet(b, e, shards, true)
				out.add(offerLoad(b, f, shardProc.Name, n, time.Duration(float64(time.Second)/rate)))
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
			}
			rps := float64(out.accepted*(2*shardChain+2)) / b.Elapsed().Seconds()
			b.ReportMetric(rate, "offered/s")
			b.ReportMetric(rps, "records/s")
			b.ReportMetric(float64(out.rebalanced)/float64(b.N), "rebalanced/op")
			p99 := reportOffered(b, out)
			if shards == 1 {
				one = rps
				if out.shed == 0 {
					b.Fatalf("one shard shed nothing at %.0f arrivals/s, 4.5x its capacity", rate)
				}
			} else if one > 0 {
				b.ReportMetric(rps/one, "scaling-x")
				if shards == 4 && rps < 3*one {
					b.Fatalf("4 shards log %.2fx one shard's records/s, want >= 3x", rps/one)
				}
			}
			if p99 > bound {
				b.Fatalf("accepted p99 %v exceeds %v", p99, bound)
			}
		})
	}
}

// ---------------------------------------------------------------- B15 ---

// downStore is the store behind B15's archive that is down from its first
// operation; the fault store in front of it never lets an operation reach
// it.
type downStore struct{}

func (downStore) Put(string, []byte) error   { return nil }
func (downStore) Get(string) ([]byte, error) { return nil, wal.ErrStoreMiss }
func (downStore) List() ([]string, error)    { return nil, nil }
func (downStore) Delete(string) error        { return nil }

// archiveRun runs 32 instances of chain on e as a two-shard
// group-committed fleet in a fresh directory, checkpointed every 64
// records, and with mode "archive" or "archive-down" an archiver per
// shard over a directory store or over a store that is down. It returns
// how long the instances took and how many blobs the archive holds once
// the archivers are drained.
func archiveRun(tb testing.TB, e *engine.Engine, mode string) (time.Duration, int) {
	tb.Helper()
	root := filepath.Join(tb.TempDir(), "fleet")
	cfg := engine.FleetConfig{Shards: 2, Dir: root, Parallel: 8, MaxQueue: 16,
		GroupCommit: true, SegmentMaxRecords: 64, CheckpointEveryRecords: 64}
	if mode != "no-archive" {
		cfg.ArchiveDir = filepath.Join(root, "archive")
		cfg.ArchiveOpts = func(shard int) []wal.ArchiverOption {
			return []wal.ArchiverOption{wal.ArchiveBackoff(time.Millisecond, 8*time.Millisecond),
				wal.ArchiveBreakerCooldown(4 * time.Millisecond), wal.ArchiveSeed(int64(shard))}
		}
	}
	if mode == "archive-down" {
		cfg.ArchiveStore = func(int) wal.Store {
			return wal.NewFaultStore(downStore{}, wal.StoreUnavailable, 1, wal.Outage(wal.Forever))
		}
	}
	f, err := engine.NewFleet(e, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := f.Run(chain.Name, 32, nil)
	if err == nil && res.Finished != 32 {
		err = fmt.Errorf("finished %d of 32: %v", res.Finished, res.Err)
	}
	for _, sh := range f.Shards() {
		if a := sh.Archiver(); a != nil && mode == "archive" {
			a.Drain(2 * time.Second)
		}
	}
	if err := errors.Join(err, f.Close()); err != nil {
		tb.Fatal(err)
	}
	blobs := 0
	if cfg.ArchiveDir != "" {
		filepath.WalkDir(cfg.ArchiveDir, func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				blobs++
			}
			return nil
		})
	}
	return res.Elapsed, blobs
}

// BenchmarkArchive is B15: B9's fleet-32 run on two shards without an
// archive, with one, and with one that is down. Archival runs off the
// commit path and pruning waits for verified copies, so records/s should
// hold in all three. TestArchiveHoldsBlobsOnlyWhenUp holds its gate.
func BenchmarkArchive(b *testing.B) {
	var base float64 // records/s without an archive
	for _, mode := range []string{"no-archive", "archive", "archive-down"} {
		b.Run(mode, func(b *testing.B) {
			e := newChainEngine(b)
			var took time.Duration
			blobs := 0
			for i := 0; i < b.N; i++ {
				d, n := archiveRun(b, e, mode)
				took, blobs = took+d, blobs+n
			}
			rps := float64(32*chainRecs*b.N) / took.Seconds()
			b.ReportMetric(rps, "records/s")
			b.ReportMetric(float64(blobs)/float64(b.N), "blobs/op")
			if mode == "no-archive" {
				base = rps
			} else if base > 0 {
				b.ReportMetric(rps/base, "vs-no-archive-x")
			}
		})
	}
}

// TestArchiveHoldsBlobsOnlyWhenUp is B15's gate: every instance finishes
// with the archive up, down or absent; the archive that is up holds blobs
// and the one that is down holds none.
func TestArchiveHoldsBlobsOnlyWhenUp(t *testing.T) {
	e := newChainEngine(t)
	for _, mode := range []string{"no-archive", "archive", "archive-down"} {
		if _, blobs := archiveRun(t, e, mode); (mode == "archive") != (blobs > 0) {
			t.Errorf("%s: the archive holds %d blobs", mode, blobs)
		}
	}
}

// ---------------------------------------------------------------- B16 ---

// timeTravel asks a crashed corpus of 128 instances for the state of its
// crashed instance as of its newest boundary, through the checkpoint and
// the segment tail, or through the whole history when full is set.
func timeTravel(tb testing.TB, dir, id string, full bool) (*engine.InstanceSnapshot, int, *history.Stats) {
	tb.Helper()
	snap, n, st, err := (&history.Source{WAL: dir, Full: full}).StateAt(chainEngine, id, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return snap, n, st
}

// BenchmarkTimeTravel is B16: the time-travel query on a crashed
// fleet-128 trail through the whole history against through the newest
// checkpoint plus the segment tail. Its gate, at least 10x fewer records
// read for the same answer, is a row of the cost ledger (ledger_test.go).
func BenchmarkTimeTravel(b *testing.B) {
	var full float64 // records the full-history query read
	for _, ckpt := range []bool{false, true} {
		mode := map[bool]string{false: "full-history", true: "checkpoint+tail"}[ckpt]
		b.Run(mode, func(b *testing.B) {
			dir, id := crashedCorpus(b, 128, ckpt)
			b.ResetTimer()
			var st *history.Stats
			for i := 0; i < b.N; i++ {
				_, _, st = timeTravel(b, dir, id, !ckpt)
			}
			b.ReportMetric(float64(st.RecordsRead), "records-read")
			b.ReportMetric(float64(st.RecordsReplayed), "records-replayed")
			if !ckpt {
				full = float64(st.RecordsRead)
			} else if full > 0 {
				b.ReportMetric(full/float64(st.RecordsRead), "read-ratio-x")
			}
		})
	}
}
