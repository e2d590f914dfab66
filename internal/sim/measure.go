package sim

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/atm/flexible"
	"repro/internal/atm/saga"
	"repro/internal/engine"
	"repro/internal/fdl"
	"repro/internal/fmtm"
	"repro/internal/model"
	"repro/internal/rm"
	"repro/internal/txdb"
	"repro/internal/wal"
)

// Timing is the result of one measured operation: the mean over every
// timed iteration, the per-op time of the fastest batch (the noise floor —
// the statistic to compare across PRs, since it is least disturbed by GC
// and scheduling), and how many iterations were timed.
type Timing struct {
	MeanNs float64
	MinNs  float64
	Iters  int
}

// measureStats times f. Calibration runs over a short warm-up *window*
// rather than a single cold call — the first execution of a workload pays
// lazy initialization and cold caches, and letting it alone pick the
// iteration count made ns/op swing between runs. The timed phase then
// runs in a few equal batches so a per-batch minimum is available.
func measureStats(f func()) Timing {
	const (
		warmDuration = 5 * time.Millisecond
		minDuration  = 30 * time.Millisecond
		batches      = 3
	)
	// Warm-up window: at least two calls, then until the window elapses,
	// calibrating on the fastest call observed.
	per := time.Duration(1<<63 - 1)
	warmStart := time.Now()
	for calls := 0; calls < 2 || time.Since(warmStart) < warmDuration; calls++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < per {
			per = d
		}
	}
	if per <= 0 {
		per = time.Nanosecond
	}
	iters := int(minDuration/batches/per) + 1
	var total time.Duration
	minBatch := math.MaxFloat64
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		elapsed := time.Since(start)
		total += elapsed
		if perOp := float64(elapsed.Nanoseconds()) / float64(iters); perOp < minBatch {
			minBatch = perOp
		}
	}
	return Timing{
		MeanNs: float64(total.Nanoseconds()) / float64(batches*iters),
		MinNs:  minBatch,
		Iters:  batches * iters,
	}
}

// measure runs f repeatedly and returns mean ns/op (see measureStats).
func measure(f func()) float64 { return measureStats(f).MeanNs }

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// RunB1 measures navigation throughput across topologies.
func RunB1() *Report {
	r := &Report{
		ID:      "B1",
		Title:   "navigation throughput by topology",
		Columns: []string{"topology", "activities", "ns/instance", "activities/sec"},
		Pass:    true,
	}
	cases := []struct {
		name string
		proc *model.Process
		acts int
	}{
		{"chain", Chain("c10", 10), 10},
		{"chain", Chain("c100", 100), 100},
		{"chain", Chain("c1000", 1000), 1000},
		{"fan-out/in", FanOutIn("f10", 10), 12},
		{"fan-out/in", FanOutIn("f100", 100), 102},
		{"dpe-chain", DPEChain("d100", 100), 100},
	}
	for _, c := range cases {
		e := NewEngine()
		if err := e.RegisterProcess(c.proc); err != nil {
			r.Pass = false
			r.Err = err
			return r
		}
		tm := measureStats(func() {
			inst, err := e.CreateInstance(c.proc.Name, nil, wal.Discard)
			if err == nil {
				err = inst.Start()
			}
			if err != nil || !inst.Finished() {
				panic(fmt.Sprintf("B1 %s: %v", c.proc.Name, err))
			}
		})
		actsPerSec := float64(c.acts) / (tm.MeanNs / 1e9)
		r.AddRow(c.name, strconv.Itoa(c.acts), fmtNs(tm.MeanNs), fmt.Sprintf("%.0f", actsPerSec))
		r.AddSample(sampleFrom(fmt.Sprintf("B1/%s/%d", c.name, c.acts), tm, actsPerSec))
	}
	return r
}

// RunB2 compares saga-as-workflow against the native saga executor.
func RunB2() *Report {
	r := &Report{
		ID:      "B2",
		Title:   "saga: workflow encoding (Fig. 2) vs native executor",
		Columns: []string{"n", "abort", "native ns/op", "workflow ns/op", "overhead x"},
		Pass:    true,
	}
	for _, n := range []int{5, 10, 20, 50} {
		for _, abort := range []bool{false, true} {
			spec := NStepSaga("s", n)
			abortName := ""
			if abort {
				abortName = fmt.Sprintf("T%d", n/2)
			}
			mkDec := func() rm.Decider {
				inj := rm.NewInjector()
				if abortName != "" {
					inj.AbortAlways(abortName)
				}
				return inj
			}
			nativeTm := measureStats(func() {
				ex := &saga.Executor{Decider: mkDec()}
				if _, err := ex.Execute(spec, fmtm.PureSagaBinding(spec), nil); err != nil {
					panic(err)
				}
			})
			nativeNs := nativeTm.MeanNs
			// Engine and template are prepared once (template reuse is how
			// FlowMark amortizes translation); per-op cost is instance
			// creation + navigation.
			e := engine.New()
			if err := fmtm.RegisterRuntime(e); err != nil {
				panic(err)
			}
			dec := mkDec()
			if err := fmtm.RegisterSaga(e, spec, fmtm.PureSagaBinding(spec), dec, nil); err != nil {
				panic(err)
			}
			p, err := fmtm.TranslateSaga(spec, fmtm.SagaOptions{})
			if err != nil {
				panic(err)
			}
			if err := e.RegisterProcess(p); err != nil {
				panic(err)
			}
			wfTm := measureStats(func() {
				inst, err := e.CreateInstance(spec.Name, nil, wal.Discard)
				if err == nil {
					err = inst.Start()
				}
				if err != nil || !inst.Finished() {
					panic(err)
				}
			})
			wfNs := wfTm.MeanNs
			ab := "-"
			if abort {
				ab = abortName
			}
			r.AddRow(strconv.Itoa(n), ab, fmtNs(nativeNs), fmtNs(wfNs), fmt.Sprintf("%.1f", wfNs/nativeNs))
			caseName := fmt.Sprintf("B2/n=%d/abort=%s", n, ab)
			r.AddSample(sampleFrom(caseName+"/native", nativeTm, 0))
			r.AddSample(sampleFrom(caseName+"/workflow", wfTm, 0))
		}
	}
	return r
}

// RunB3 compares flexible-as-workflow against the native executor on the
// Figure 3 example, forcing each execution path.
func RunB3() *Report {
	r := &Report{
		ID:      "B3",
		Title:   "flexible transaction: workflow encoding (Fig. 4) vs native executor",
		Columns: []string{"scenario", "native ns/op", "workflow ns/op", "overhead x"},
		Pass:    true,
	}
	scenarios := []struct {
		name   string
		inject func(*rm.Injector)
	}{
		{"p1 commits", func(*rm.Injector) {}},
		{"p2 via T8 abort", func(i *rm.Injector) { i.AbortAlways("T8") }},
		{"p3 via T4 abort", func(i *rm.Injector) { i.AbortAlways("T4") }},
		{"clean abort via T2", func(i *rm.Injector) { i.AbortAlways("T2") }},
	}
	for _, sc := range scenarios {
		spec := Fig3Flexible()
		mkDec := func() rm.Decider {
			inj := rm.NewInjector()
			sc.inject(inj)
			return inj
		}
		nativeTm := measureStats(func() {
			ex := &flexible.Executor{Decider: mkDec()}
			if _, err := ex.Execute(spec, fmtm.PureFlexibleBinding(spec), nil); err != nil {
				panic(err)
			}
		})
		nativeNs := nativeTm.MeanNs
		e := engine.New()
		if err := fmtm.RegisterRuntime(e); err != nil {
			panic(err)
		}
		if err := fmtm.RegisterFlexible(e, spec, fmtm.PureFlexibleBinding(spec), mkDec(), nil); err != nil {
			panic(err)
		}
		p, err := fmtm.TranslateFlexible(spec)
		if err != nil {
			panic(err)
		}
		if err := e.RegisterProcess(p); err != nil {
			panic(err)
		}
		wfTm := measureStats(func() {
			inst, err := e.CreateInstance(spec.Name, nil, wal.Discard)
			if err == nil {
				err = inst.Start()
			}
			if err != nil || !inst.Finished() {
				panic(err)
			}
		})
		wfNs := wfTm.MeanNs
		r.AddRow(sc.name, fmtNs(nativeNs), fmtNs(wfNs), fmt.Sprintf("%.1f", wfNs/nativeNs))
		r.AddSample(sampleFrom("B3/"+sc.name+"/native", nativeTm, 0))
		r.AddSample(sampleFrom("B3/"+sc.name+"/workflow", wfTm, 0))
	}
	return r
}

// RunB4 measures FMTM translation and FDL round-trip cost vs. spec size.
func RunB4() *Report {
	r := &Report{
		ID:      "B4",
		Title:   "Exotica/FMTM translation and FDL round trip vs. saga size",
		Columns: []string{"steps", "translate ns/op", "fdl export ns/op", "fdl parse ns/op"},
		Pass:    true,
	}
	for _, n := range []int{10, 100, 1000} {
		spec := NStepSaga("s", n)
		trTm := measureStats(func() {
			if _, err := fmtm.TranslateSaga(spec, fmtm.SagaOptions{}); err != nil {
				panic(err)
			}
		})
		p, err := fmtm.TranslateSaga(spec, fmtm.SagaOptions{})
		if err != nil {
			panic(err)
		}
		file := &fdl.File{Types: p.Types, Processes: []*model.Process{p}}
		var text string
		expTm := measureStats(func() { text = fdl.Export(file) })
		parseTm := measureStats(func() {
			if _, err := fdl.Parse(text); err != nil {
				panic(err)
			}
		})
		r.AddRow(strconv.Itoa(n), fmtNs(trTm.MeanNs), fmtNs(expTm.MeanNs), fmtNs(parseTm.MeanNs))
		r.AddSample(sampleFrom(fmt.Sprintf("B4/n=%d/translate", n), trTm, 0))
		r.AddSample(sampleFrom(fmt.Sprintf("B4/n=%d/fdl-export", n), expTm, 0))
		r.AddSample(sampleFrom(fmt.Sprintf("B4/n=%d/fdl-parse", n), parseTm, 0))
	}
	return r
}

// RunB5 measures WAL replay: recovery time vs. log length.
func RunB5() *Report {
	r := &Report{
		ID:      "B5",
		Title:   "forward recovery: replay time vs. log length",
		Columns: []string{"chain length", "log records", "recover ns/op", "ns/record", "records/sec"},
		Pass:    true,
	}
	for _, n := range []int{100, 1000, 10000} {
		e := NewEngine()
		proc := Chain(fmt.Sprintf("c%d", n), n)
		if err := e.RegisterProcess(proc); err != nil {
			panic(err)
		}
		log := &wal.MemLog{}
		inst, err := e.CreateInstance(proc.Name, nil, log)
		if err == nil {
			err = inst.Start()
		}
		if err != nil {
			panic(err)
		}
		records := log.Records()
		recTm := measureStats(func() {
			rec, err := engine.Recover(e, records, wal.Discard)
			if err != nil || !rec.Finished() {
				panic(err)
			}
		})
		recNs := recTm.MeanNs
		recsPerSec := float64(len(records)) / (recNs / 1e9)
		r.AddRow(strconv.Itoa(n), strconv.Itoa(len(records)), fmtNs(recNs),
			fmt.Sprintf("%.0f", recNs/float64(len(records))),
			fmt.Sprintf("%.0f", recsPerSec))
		r.AddSample(sampleFrom(fmt.Sprintf("B5/chain=%d/records=%d", n, len(records)), recTm, recsPerSec))
	}
	return r
}

// RunB6 measures txdb commit throughput and deadlock aborts under
// contention.
func RunB6() *Report {
	r := &Report{
		ID:      "B6",
		Title:   "txdb (strict 2PL): throughput and deadlock aborts vs. concurrency",
		Columns: []string{"workers", "keyspace", "txs", "commits/sec", "deadlock aborts"},
		Pass:    true,
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, keys := range []int{4, 1024} {
			s := txdb.Open("bench")
			const txPerWorker = 2000
			start := time.Now()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rr := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < txPerWorker; i++ {
						k1 := fmt.Sprintf("k%d", rr.Intn(keys))
						k2 := fmt.Sprintf("k%d", rr.Intn(keys))
						_ = s.DoRetry(50, func(tx *txdb.Tx) error {
							if _, _, err := tx.Get(k1); err != nil {
								return err
							}
							// Widen the window between lock acquisitions so
							// transactions actually overlap; without it the
							// per-transaction critical section is too short
							// for the deadlock series to show anything.
							runtime.Gosched()
							if err := tx.Put(k2, "v"); err != nil {
								return err
							}
							return tx.Put(k1, "v")
						})
					}
				}(w)
			}
			wg.Wait()
			elapsed := time.Since(start)
			commits, _, deadlocks := s.Stats()
			total := workers * txPerWorker
			commitsPerSec := float64(commits) / elapsed.Seconds()
			r.AddRow(strconv.Itoa(workers), strconv.Itoa(keys), strconv.Itoa(total),
				fmt.Sprintf("%.0f", commitsPerSec), fmt.Sprint(deadlocks))
			r.AddSample(Sample{
				Name:          fmt.Sprintf("B6/workers=%d/keys=%d", workers, keys),
				NsOp:          float64(elapsed.Nanoseconds()) / float64(total),
				Iters:         total,
				RecordsPerSec: commitsPerSec,
			})
		}
	}
	return r
}

// RunB7 runs the design ablations: per-event WAL vs. disabled, and the
// relative cost of a dead-path-eliminated activity vs. an executed one.
func RunB7() *Report {
	r := &Report{
		ID:      "B7",
		Title:   "ablations: WAL on/off; executed vs. dead-path-eliminated activity cost",
		Columns: []string{"configuration", "ns/instance", "vs baseline x"},
		Pass:    true,
	}
	const n = 200
	e := NewEngine()
	live := Chain("live", n)
	dead := DPEChain("dead", n)
	for _, proc := range []*model.Process{live, dead} {
		if err := e.RegisterProcess(proc); err != nil {
			panic(err)
		}
	}
	run := func(name string, log wal.Log) Timing {
		return measureStats(func() {
			inst, err := e.CreateInstance(name, nil, log)
			if err == nil {
				err = inst.Start()
			}
			if err != nil || !inst.Finished() {
				panic(err)
			}
		})
	}
	baseTm := run("live", wal.Discard)
	base := baseTm.MeanNs
	r.AddRow(fmt.Sprintf("chain n=%d, WAL off (baseline)", n), fmtNs(base), "1.0")
	r.AddSample(sampleFrom("B7/wal-off", baseTm, 0))
	withWalTm := run("live", &wal.MemLog{})
	r.AddRow(fmt.Sprintf("chain n=%d, in-memory WAL", n), fmtNs(withWalTm.MeanNs), fmt.Sprintf("%.2f", withWalTm.MeanNs/base))
	r.AddSample(sampleFrom("B7/wal-mem", withWalTm, 0))
	dpeTm := run("dead", wal.Discard)
	r.AddRow(fmt.Sprintf("dpe-chain n=%d (1 executed, %d eliminated)", n, n-1), fmtNs(dpeTm.MeanNs), fmt.Sprintf("%.2f", dpeTm.MeanNs/base))
	r.AddSample(sampleFrom("B7/dpe-chain", dpeTm, 0))
	// File-backed WAL.
	path := filepath.Join(os.TempDir(), fmt.Sprintf("wfbench-%d.wal", os.Getpid()))
	defer os.Remove(path)
	if flog, ferr := wal.OpenFileLog(path); ferr == nil {
		fileTm := run("live", flog)
		flog.Close()
		r.AddRow(fmt.Sprintf("chain n=%d, file WAL", n), fmtNs(fileTm.MeanNs), fmt.Sprintf("%.2f", fileTm.MeanNs/base))
		r.AddSample(sampleFrom("B7/wal-file", fileTm, 0))
	}
	return r
}

// RunB8 measures the concurrent scheduler: a fan of latency-bound
// activities (each sleeping a fixed time, simulating calls to external
// applications — the realistic WFMS regime) navigated sequentially vs.
// with program worker pools of increasing size.
func RunB8() *Report {
	r := &Report{
		ID:      "B8",
		Title:   "concurrent scheduler: latency-bound fan-out (2ms per activity) vs. pool size",
		Columns: []string{"fan width", "pool", "wall ms/instance", "speedup x"},
		Pass:    true,
	}
	const width = 8
	const latency = 2 * time.Millisecond
	mkEngine := func(pool int) *engine.Engine {
		e := engine.New(engine.WithConcurrency(pool))
		mustRegister(e, "ok", OKProgram)
		mustRegister(e, "slow", engine.ProgramFunc(func(inv *engine.Invocation) error {
			time.Sleep(latency)
			inv.Out.SetRC(0)
			return nil
		}))
		proc := FanOutIn("fan", width)
		for _, a := range proc.Activities {
			if a.Name != "A" && a.Name != "Z" {
				a.Program = "slow"
			}
		}
		if err := e.RegisterProcess(proc); err != nil {
			panic(err)
		}
		return e
	}
	run := func(e *engine.Engine) float64 {
		const iters = 5
		start := time.Now()
		for i := 0; i < iters; i++ {
			inst, err := e.CreateInstance("fan", nil, wal.Discard)
			if err == nil {
				err = inst.Start()
			}
			if err != nil || !inst.Finished() {
				panic(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / iters
	}
	base := run(mkEngine(1))
	r.AddRow(strconv.Itoa(width), "1 (sequential)", fmt.Sprintf("%.1f", base/1e6), "1.0")
	r.AddSample(Sample{Name: "B8/pool=1", NsOp: base, Iters: 5})
	for _, pool := range []int{2, 4, 8} {
		ns := run(mkEngine(pool))
		r.AddRow(strconv.Itoa(width), strconv.Itoa(pool), fmt.Sprintf("%.1f", ns/1e6), fmt.Sprintf("%.1f", base/ns))
		r.AddSample(Sample{Name: fmt.Sprintf("B8/pool=%d", pool), NsOp: ns, Iters: 5})
	}
	return r
}
