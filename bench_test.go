// Benchmarks B1–B8 of EXPERIMENTS.md, the only implementation of those
// tables (cmd/wfbench prints B9–B16). Regenerate them with
//
//	go test -run '^$' -bench . -benchmem ./
//
// B6's worker sweep is the -cpu list: add -cpu 1,2,4,8 to that command.
package exotica_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atm/flexible"
	"repro/internal/atm/gen"
	"repro/internal/atm/saga"
	"repro/internal/engine"
	"repro/internal/fdl"
	"repro/internal/fmtm"
	"repro/internal/model"
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
				binding := fmtm.PureSagaBinding(spec)
				dec := sagaDecider(n, abort)
				ex := &saga.Executor{Decider: dec}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ex.Execute(spec, binding, nil); err != nil {
						b.Fatal(err)
					}
				}
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
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runInstance(b, e, spec.Name, wal.Discard)
				}
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

func BenchmarkFlexibleNative(b *testing.B) {
	for _, sc := range []struct{ name, abort string }{
		{"p1", ""}, {"p2_via_T8", "T8"}, {"p3_via_T4", "T4"}, {"abort_via_T2", "T2"},
	} {
		b.Run(sc.name, func(b *testing.B) {
			spec := sim.Fig3Flexible()
			binding := fmtm.PureFlexibleBinding(spec)
			ex := &flexible.Executor{Decider: flexDecider(sc.abort)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Execute(spec, binding, nil); err != nil {
					b.Fatal(err)
				}
			}
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runInstance(b, e, spec.Name, wal.Discard)
			}
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

func BenchmarkTranslateFlexible(b *testing.B) {
	for _, subs := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			spec := gen.New(gen.Flexible, 1, gen.Config{MaxSteps: subs, MaxDepth: subs, MaxBranch: 3}).Flexible
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fmtm.TranslateFlexible(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
			var data []byte
			if f == wal.FormatBinary {
				data = append(data, wal.FileHeader(f)...)
			}
			for i := 0; i < n; i++ {
				var err error
				data, err = wal.EncodeRecord(data, rec, f)
				if err != nil {
					b.Fatal(err)
				}
			}
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
// per-record fsync (the group-commit regime). The binary/allocs figure is
// the B13 zero-alloc gate.
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
