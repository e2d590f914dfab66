// The cost ledger: every count the repository is held to, in one reviewed
// file. Rewrite it with go test -run TestCostLedger -update .
package exotica_test

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/fmtm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/org"
	"repro/internal/rm"
	"repro/internal/wal"
)

var updateCosts = flag.Bool("update", false, "rewrite testdata/costs.golden with the costs measured now")

const costsFile = "testdata/costs.golden"

// TestCostLedger measures every case once and checks each cost against
// its line of testdata/costs.golden: case, metric, value and, where the
// value is not exact, a bound.
//   - No bound: an engine count — records by type, frame bytes, flushes
//     and syncs, clock reads, programs, steps, records replayed and read.
//     It must not move.
//   - "v <= c": a runtime count (allocations, struct sizes). At most c on
//     any toolchain, and unmoved under the one the file names.
//   - "~v <= c": heap bytes, which vary by a few from run to run. At most c.
//   - "v >= r": a ratio gate. At least r; v, which may depend on timing,
//     is written for the reader.
//
// Runtime rows are not measured under -race. A row that moves fails with
// one line naming its case and metric.
func TestCostLedger(t *testing.T) {
	var l ledger
	for _, c := range ledgerCases {
		l.navigate(t, c)
	}
	l.approval(t)
	l.fleet(t)
	l.groupCommit(t)
	l.restartAndTimeTravel(t)
	if !raceEnabled() {
		l.runtime(t)
		l.walScan(t)
	}
	l.check(t)
}

// A cost is one line of the ledger.
type cost struct {
	kase, metric, op string // op: "", "<=", "~<=" or ">="
	value, bound     float64
}

// reading is the value and bound columns of the cost's line.
func (c cost) reading() string {
	num := func(v float64) string {
		if v == math.Trunc(v) {
			return strconv.FormatInt(int64(v), 10)
		}
		return strconv.FormatFloat(v, 'f', 2, 64)
	}
	switch c.op {
	case "":
		return num(c.value)
	case "~<=":
		return "~" + num(c.value) + " <= " + num(c.bound)
	}
	return num(c.value) + " " + c.op + " " + num(c.bound)
}

type ledger []cost

func (l *ledger) add(kase, metric, op string, v, bound float64) {
	*l = append(*l, cost{kase, metric, op, v, bound})
}

func (l *ledger) exact(kase, metric string, v int64) { l.add(kase, metric, "", float64(v), 0) }

// logFile adds the records by type and the bytes of the log at path.
func (l *ledger) logFile(t *testing.T, kase, path string) (records int) {
	recs, err := wal.ReadFile(path)
	fi, serr := os.Stat(path)
	if err := errors.Join(err, serr); err != nil {
		t.Fatal(err)
	}
	by := map[wal.RecordType]int64{}
	for _, r := range recs {
		by[r.Type]++
	}
	for _, typ := range []wal.RecordType{wal.RecCreated, wal.RecStartedActivity, wal.RecFinishedActivity, wal.RecDone} {
		l.exact(kase, "records."+string(typ), by[typ])
	}
	l.exact(kase, "frame-bytes", fi.Size())
	return len(recs)
}

func (l *ledger) programsAndSteps(kase string, e *engine.Engine) {
	l.exact(kase, "programs", e.Metrics().Counter("engine.program.invocations").Value())
	l.exact(kase, "steps", e.Metrics().Counter("engine.navigation.steps").Value())
}

// raceEnabled reports a binary built with -race, whose allocator and
// sync.Pool make the runtime counts mean nothing.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// check compares every cost with its recorded line, or rewrites the file
// under -update.
func (l ledger) check(t *testing.T) {
	if *updateCosts {
		if raceEnabled() {
			t.Fatal("-update needs a build without -race, which measures the runtime rows")
		}
		b := &strings.Builder{}
		fmt.Fprintf(b, "# Costs checked by TestCostLedger (ledger_test.go), which explains the bounds.\n"+
			"# Rewrite with: go test -run TestCostLedger -update .\n# toolchain %s\n", runtime.Version())
		for _, c := range l {
			fmt.Fprintf(b, "%-28s %-40s %s\n", c.kase, c.metric, c.reading())
		}
		if err := os.WriteFile(costsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(costsFile)
	if err != nil {
		t.Fatal(err)
	}
	recorded, wrote := map[string]string{}, ""
	for _, line := range strings.Split(string(data), "\n") {
		switch f := strings.Fields(line); {
		case len(f) == 3 && f[1] == "toolchain":
			wrote = f[2]
		case len(f) >= 3 && f[0] != "#":
			recorded[f[0]+" "+f[1]] = strings.Join(f[2:], " ")
		}
	}
	for _, c := range l {
		key := c.kase + " " + c.metric
		was, ok := recorded[key]
		delete(recorded, key)
		switch {
		case !ok:
			t.Errorf("%s: %s, not in the ledger", key, c.reading())
		case c.op == ">=" && c.value < c.bound, strings.HasSuffix(c.op, "<=") && c.value > c.bound:
			t.Errorf("%s: %s, out of bounds (recorded %s)", key, c.reading(), was)
		case (c.op == "" || c.op == "<=" && wrote == runtime.Version()) && c.reading() != was:
			t.Errorf("%s: %s, recorded %s", key, c.reading(), was)
		}
	}
	for key, was := range recorded {
		if !raceEnabled() || !strings.Contains(was, "<=") {
			t.Errorf("%s: recorded %s, no longer measured", key, was)
		}
	}
}

// A ledgerCase is one of the engine's golden cases: a process and the
// abort decisions of its run.
type ledgerCase struct {
	name, process string
	script        func(*rm.Injector)
}

var ledgerCases = []ledgerCase{
	{"travel-commit", "travel", func(*rm.Injector) {}},
	{"travel-compensated", "travel", func(inj *rm.Injector) { inj.AbortAlways("book_car") }},
	{"travel-retried-compensation", "travel", func(inj *rm.Injector) {
		inj.AbortAlways("book_car")
		inj.AbortN("cancel_hotel", 2)
		inj.AbortN("cancel_flight", 1)
	}},
	{"fig3-commit", "fig3", func(*rm.Injector) {}},
	{"fig3-alternative", "fig3", func(inj *rm.Injector) { inj.AbortAlways("F8") }},
	{"fig3-alternative-retried", "fig3", func(inj *rm.Injector) {
		inj.AbortAlways("F8")
		inj.AbortN("FC6", 1)
		inj.AbortN("F7", 2)
	}},
	{"fig3-last-path", "fig3", func(inj *rm.Injector) { inj.AbortAlways("F4") }},
	{"fig3-compensated", "fig3", func(inj *rm.Injector) { inj.AbortAlways("F2") }},
}

// ledgerPipeline compiles the engine's golden spec — the travel saga of
// §4.1 and the Figure 3 flexible transaction of §4.2 — once.
var ledgerPipeline = sync.OnceValues(func() (*fmtm.PipelineResult, error) {
	spec, err := os.ReadFile("internal/engine/testdata/atm.spec")
	if err != nil {
		return nil, err
	}
	return fmtm.Pipeline(string(spec))
})

// atmEngine returns an engine with its own metrics on which FMTM has
// installed the golden spec, inj deciding every program.
func atmEngine(t *testing.T, inj *rm.Injector, opts ...engine.Option) *engine.Engine {
	res, err := ledgerPipeline()
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(append([]engine.Option{engine.WithMetrics(obs.NewRegistry())}, opts...)...)
	saga, flex := res.Specs.Sagas[0], res.Specs.Flexible[0]
	if err := errors.Join(fmtm.RegisterRuntime(e),
		fmtm.RegisterSaga(e, saga, fmtm.PureSagaBinding(saga), inj, &rm.Recorder{}),
		fmtm.RegisterFlexible(e, flex, fmtm.PureFlexibleBinding(flex), inj, &rm.Recorder{}),
		fmtm.Install(e, res.File)); err != nil {
		t.Fatal(err)
	}
	return e
}

// run navigates the case on a fresh engine whose clock counts its reads:
// from the start on log when records is nil, else by recovering them.
func (c ledgerCase) run(t *testing.T, log wal.Log, records []wal.Record, opts ...engine.Option) (e *engine.Engine, inst *engine.Instance, reads int64, err error) {
	inj := rm.NewInjector()
	c.script(inj)
	e = atmEngine(t, inj, append(opts, engine.WithClock(func() int64 { reads++; return reads }))...)
	if records != nil {
		inst, err = engine.Recover(e, records, log)
	} else if inst, err = e.CreateInstanceID(c.process, "inst-1", nil, log); err == nil {
		err = inst.Start()
	}
	if err == nil && !inst.Finished() {
		err = errors.New("not finished")
	}
	return e, inst, reads, err
}

// navigate adds a golden case's log on a group-commit log, its flushes,
// syncs, clock reads, programs and steps, and its clock reads on four
// workers and, on one and four, summed over crashing after every record
// and recovering: one per navigating call, step and program completion.
func (l *ledger) navigate(t *testing.T, c ledgerCase) {
	reg, path := obs.NewRegistry(), filepath.Join(t.TempDir(), "wal.log")
	fl, err := wal.OpenFileLog(path, wal.WithFS(flushFS{}), wal.WithMetricsRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	group := wal.NewGroupCommitLog(fl, wal.GroupWithMetricsRegistry(reg))
	e, inst, reads, err := c.run(t, group, nil)
	if err := errors.Join(err, group.Close()); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	records, trail := l.logFile(t, c.name, path), inst.Trail()
	l.exact(c.name, "flushes", reg.Counter("wal.group.batches").Value())
	l.exact(c.name, "syncs", reg.Histogram("wal.fsync_ns").SnapshotNow().Count)
	l.exact(c.name, "clock-reads", reads)
	l.programsAndSteps(c.name, e)
	for _, workers := range []int{1, 4} {
		suffix, opt := "", engine.WithConcurrency(workers)
		if workers > 1 {
			suffix = fmt.Sprintf(".%d-workers", workers)
			if _, _, reads, err = c.run(t, nil, nil, opt); err != nil {
				t.Fatalf("%s on %d workers: %v", c.name, workers, err)
			}
			l.exact(c.name, "clock-reads"+suffix, reads)
		}
		var sum int64
		for k := 1; k < records; k++ {
			crashLog := &wal.MemLog{CrashAfter: k}
			_, _, crashed, err := c.run(t, crashLog, nil, opt)
			_, inst, recovered, rerr := c.run(t, nil, crashLog.Records(), opt)
			if !errors.Is(err, wal.ErrCrash) || rerr != nil {
				t.Fatalf("%s crashed after %d records: %v, then recovery: %v", c.name, k, err, rerr)
			}
			// Replay reads the clock where the live run did, so the
			// recovered trail is the crash-free one, stamps included — but
			// for a retried case, whose fresh injector aborts again.
			if workers == 1 && !strings.Contains(c.name, "retried") && !reflect.DeepEqual(inst.Trail(), trail) {
				t.Errorf("%s crashed after %d records: the recovered trail differs from the crash-free one", c.name, k)
			}
			sum += crashed + recovered
		}
		l.exact(c.name, "clock-reads.crash-and-recover"+suffix, sum)
	}
}

// approval adds a loan approval whose manual step alice selected, or a
// supervisor forced to finish, recovered from its whole log. A person is
// asked once: recovering each prefix of the log posts the step iff its
// completion is not logged, and the whole log recovers finished, with
// every worklist empty and no program called.
func (l *ledger) approval(t *testing.T) {
	build := func() *engine.Engine {
		dir := org.NewDirectory()
		e := engine.New(engine.WithOrganization(dir), engine.WithMetrics(obs.NewRegistry()))
		p := model.NewProcess("Approval")
		p.Activities = []*model.Activity{
			{Name: "approve", Kind: model.KindProgram, Program: "ok", Start: model.StartManual, Staff: model.Staff{Role: "clerk"}},
			{Name: "ship", Kind: model.KindProgram, Program: "ok"},
		}
		p.Control = []*model.ControlConnector{{From: "approve", To: "ship", Condition: expr.MustParse("RC = 0")}}
		ok := engine.ProgramFunc(func(inv *engine.Invocation) error { inv.Out.SetRC(0); return nil })
		if err := errors.Join(dir.AddPerson(org.Person{Name: "alice", Roles: []string{"clerk"}}),
			e.RegisterProgram("ok", ok), e.RegisterProcess(p)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, kase := range []string{"approval-selected", "approval-forced"} {
		e, log := build(), &wal.MemLog{}
		inst, err := e.CreateInstance("Approval", nil, log)
		if err == nil {
			err = inst.Start()
		}
		if items := e.Worklists().List("alice"); err == nil && len(items) != 1 {
			err = fmt.Errorf("alice holds %d work items, want 1", len(items))
		} else if err == nil && kase == "approval-selected" {
			err = inst.SelectWork("alice", items[0].ID)
		} else if err == nil {
			err = inst.ForceFinish("approve", 0)
		}
		if err != nil || !inst.Finished() {
			t.Fatalf("%s did not finish: %v", kase, err)
		}
		records, logged := log.Records(), false
		for k, rec := range records {
			logged = logged || rec.Type == wal.RecFinishedActivity && rec.Path == "approve"
			e := build()
			inst, err := engine.Recover(e, records[:k+1], nil)
			if items := e.Worklists().List("alice"); err != nil || len(items) > 1 || (len(items) == 1) == logged || inst.Finished() != logged {
				t.Fatalf("%s recovered from %d of %d records (approve's completion logged: %v): %v, alice holds %d items",
					kase, k+1, len(records), logged, err, len(items))
			}
			if k == len(records)-1 {
				l.programsAndSteps(kase+"/recovered", e)
				l.exact(kase+"/recovered", "work-items", int64(e.Worklists().Pending()))
			}
		}
	}
}

// fleet adds eight chain instances sharing a group-commit log on eight
// workers, and their records per flush against what a lone instance
// reaches, two.
func (l *ledger) fleet(t *testing.T) {
	const kase = "fleet-8"
	e, dir := newChainEngine(t, engine.WithMetrics(obs.NewRegistry())), t.TempDir()
	run := runDurableFleet(t, e, dir, 8, true)
	l.logFile(t, kase, filepath.Join(dir, "fleet.wal"))
	l.programsAndSteps(kase, e)
	l.add(kase, "records/flush", ">=", float64(run.records)/float64(run.batches), 2)
}

// groupCommit adds B9's gate: at fleet 32, group commit issues at least
// 5x fewer syncs than a sync per append, on a loaded box and under -race.
func (l *ledger) groupCommit(t *testing.T) {
	const kase = "b9-fleet-32"
	e, dir := newChainEngine(t), t.TempDir()
	per := runDurableFleet(t, e, dir, 32, false)
	group := runDurableFleet(t, e, dir, 32, true)
	l.exact(kase, "records.per-append-sync", per.records)
	l.exact(kase, "records.group-commit", group.records)
	l.exact(kase, "syncs.per-append-sync", per.syncs)
	l.add(kase, "syncs.per-append/group-commit", ">=", float64(per.syncs)/float64(group.syncs), 5)
}

// restartAndTimeTravel adds B10's and B16's gates over crashed fleet-128
// corpora with and without checkpoints: restart from the newest checkpoint
// replays, and a time-travel query through it reads, at least 10x fewer
// records than the whole history — and the query gives the same answer.
func (l *ledger) restartAndTimeTravel(t *testing.T) {
	const n = 128
	fullDir, fullID := crashedCorpus(t, n, false)
	ckptDir, ckptID := crashedCorpus(t, n, true)
	kase := "b10-restart-128"
	full, ckpt := restart(t, fullDir, n, false).Len(), restart(t, ckptDir, n, true).Len()
	l.exact(kase, "replayed.full-replay", int64(full))
	l.exact(kase, "replayed.checkpointed", int64(ckpt))
	l.add(kase, "replayed.full/checkpointed", ">=", float64(full)/float64(ckpt), 10)

	kase = "b16-time-travel-128"
	a, na, sa := timeTravel(t, fullDir, fullID, true)
	c, nc, sc := timeTravel(t, ckptDir, ckptID, false)
	// The two runs' instance IDs differ; their navigation state must not.
	if sc.Rung == wal.SourceFullReplay || a.Status != c.Status || a.TrailLen != c.TrailLen || na != nc || len(a.Activities) != len(c.Activities) {
		t.Errorf("time-travel rungs disagree: full %s/%d (%d boundaries), bounded %s/%d (%d) by %s",
			a.Status, a.TrailLen, na, c.Status, c.TrailLen, nc, sc.Rung)
	}
	l.exact(kase, "read.full-history", int64(sa.RecordsRead))
	l.exact(kase, "read.checkpoint+tail", int64(sc.RecordsRead))
	l.exact(kase, "replayed.full-history", int64(sa.RecordsReplayed))
	l.exact(kase, "replayed.checkpoint+tail", int64(sc.RecordsReplayed))
	l.add(kase, "read.full/checkpoint+tail", ">=", float64(sa.RecordsRead)/float64(sc.RecordsRead), 10)
}

// perOp returns the objects and bytes one call of f allocates, with the
// collector off so that no sync.Pool is emptied half-way.
func perOp(runs int, f func()) (objects, bytes float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64((m1.Mallocs - m0.Mallocs) / uint64(runs)), float64((m1.TotalAlloc - m0.TotalAlloc) / uint64(runs))
}

// runtime adds what navigating and snapshotting an instance allocates,
// what 5,000 finished ones retain, the slot sizes, and what a binary append
// allocates with no fsync: nothing. DESIGN.md §4.1 has their history.
func (l *ledger) runtime(t *testing.T) {
	for _, c := range []struct {
		process        string
		objects, bytes float64 // ceilings
	}{{"travel", 21, 2800}, {"fig3", 31, 4500}} {
		kase := c.process + "-commit"
		e := atmEngine(t, rm.NewInjector(), engine.WithBus(obs.NewBus()))
		var inst *engine.Instance
		objects, bytes := perOp(200, func() {
			var err error
			if inst, err = e.CreateInstance(c.process, nil, wal.Discard); err == nil {
				err = inst.Start()
			}
			if err != nil || !inst.Finished() {
				t.Fatalf("%s did not finish: %v", kase, err)
			}
		})
		l.add(kase, "allocs/op", "<=", objects, c.objects)
		l.add(kase, "bytes/op", "~<=", bytes, c.bytes)
		objects, _ = perOp(100, func() { _ = inst.Snapshot() })
		l.add(kase, "snapshot.allocs/op", "<=", objects, 5)
	}

	e, insts := atmEngine(t, rm.NewInjector()), make([]*engine.Instance, 5000)
	for i := range insts {
		inst, err := e.CreateInstance([]string{"travel", "fig3"}[i%2], nil, wal.Discard)
		if err == nil {
			err = inst.Start()
		}
		if err != nil || !inst.Finished() {
			t.Fatalf("instance %d did not finish: %v", i, err)
		}
		insts[i] = inst
	}
	runtime.GC()
	heap := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(heap)
	runtime.KeepAlive(insts)
	scan, live, n := heap[0].Value.Uint64(), heap[1].Value.Uint64(), uint64(len(insts))
	l.add("retained-5000", "live-bytes/instance", "~<=", float64(live/n), 2243)
	l.add("retained-5000", "scan-bytes/instance", "~<=", float64(scan/n), 872)
	l.add("retained-5000", "scan/live", "~<=", math.Round(100*float64(scan)/float64(live))/100, 0.45)

	typ := reflect.TypeOf(engine.Instance{})
	trail, _ := typ.FieldByName("trail")
	queue, _ := typ.FieldByName("queue")
	l.add("structs", "engine.trailRec.bytes", "<=", float64(trail.Type.Elem().Size()), 24)
	l.add("structs", "engine.actState.bytes", "<=", float64(queue.Type.Elem().Elem().Size()), 32)
	l.add("structs", "expr.Value.bytes", "<=", float64(reflect.TypeOf(expr.Value{}).Size()), 32)

	fl, err := wal.OpenFileLog(filepath.Join(t.TempDir(), "wal.bin"), wal.WithFormat(wal.FormatBinary))
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	rec := wal.Record{Type: wal.RecFinishedActivity, Instance: "inst-00042", Path: "Flight", Iter: 1,
		Values: wal.ValuesOf(map[string]expr.Value{"RC": expr.Int(0)})}
	objects, _ := perOp(1000, func() {
		if err := fl.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	l.add("wal-append-binary", "allocs/op", "<=", objects, 0)
}

// scanLog writes n records of five instances, round-robin, to a binary log
// of segs segments (0: one file) and returns its path.
func scanLog(t *testing.T, n, segs int) string {
	var l interface {
		wal.Log
		Close() error
	}
	path, err := t.TempDir(), error(nil)
	if segs == 0 {
		path = filepath.Join(path, "scan.wal")
		l, err = wal.OpenFileLog(path, wal.WithFormat(wal.FormatBinary))
	} else {
		l, err = wal.OpenSegmentedLog(path, wal.SegmentFormat(wal.FormatBinary), wal.SegmentMaxRecords(n/segs+1))
	}
	for i := 0; err == nil && i < n; i++ {
		rec := wal.Record{Type: wal.RecFinishedActivity, Instance: fmt.Sprintf("inst-%05d", i%5), Path: []string{"Flight", "Hotel", "Car"}[i%3], Iter: i,
			Values: wal.ValuesOf(map[string]expr.Value{"RC": expr.Int(0), "N": expr.Int(int64(i))})}
		if i < 5 {
			rec = wal.Record{Type: wal.RecCreated, Instance: rec.Instance, Process: "Travel", Values: rec.Values}
		}
		err = l.Append(rec)
	}
	if err == nil {
		err = l.Close()
	}
	if got, lerr := wal.ListSegments(path); err != nil || segs > 0 && (lerr != nil || len(got) != segs) {
		t.Fatalf("%d records in %d segments, want %d: %v", n, len(got), segs, errors.Join(err, lerr))
	}
	return path
}

// walScan adds what reading a binary log allocates. A walk for an absent
// instance allocates bookkeeping only, as much for 100 records as for 500.
// A whole walk adds one record slice, 11 interned strings (and 8 for the
// intern table), one Vals slice per record and one key vector (2) and its
// scratch; in eight segments, 16 objects more per file and <10% more bytes.
func (l *ledger) walScan(t *testing.T) {
	walk := func(lad wal.Ladder, want int) (objects, bytes float64) {
		return perOp(20, func() {
			if h, err := lad.Read(); err != nil || len(h.Tail) != want || h.Len() == 0 {
				t.Fatalf("walk of %s for %q: err=%v, want %d records", lad.Path, lad.Instance, err, want)
			}
		})
	}
	const records = 500
	few, _ := walk(wal.Ladder{Path: scanLog(t, records/5, 0), Instance: "nobody"}, 0)
	big := scanLog(t, records, 0)
	absent, _ := walk(wal.Ladder{Path: big, Instance: "nobody"}, 0)
	whole, _ := walk(wal.Ladder{Path: big}, records)
	l.add("wal-scan-100", "absent-walk.allocs", "<=", few, 20)
	l.add("wal-scan-500", "absent-walk.allocs", "<=", absent, 20)
	l.add("wal-scan-500", "absent-walk.allocs-over-100", "<=", absent-few, 0)
	l.add("wal-scan-500", "walk.allocs-over-absent", "<=", whole-absent, 1+11+8+records+2+1)
	oneObj, oneBytes := walk(wal.Ladder{Path: scanLog(t, records, 1), Full: true}, records)
	eightObj, eightBytes := walk(wal.Ladder{Path: scanLog(t, records, 8), Full: true}, records)
	l.add("wal-scan-500-8-segments", "walk.allocs-over-1-segment", "<=", eightObj-oneObj, 7*16)
	l.add("wal-scan-500-8-segments", "walk.bytes/1-segment", "~<=", math.Round(100*eightBytes/oneBytes)/100, 1.10)
}
