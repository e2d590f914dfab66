package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/org"
	"repro/internal/rm"
	"repro/internal/wal"
)

// recordKeeper is a log that deep-copies every record it is handed and
// keeps the record too. A record's values are the slots of the container
// it was made from, not a copy, so a container written after its record
// was queued shows as a kept record that no longer equals its copy.
type recordKeeper struct {
	next wal.Log

	mu             sync.Mutex
	handed, copies []wal.Record
}

func (k *recordKeeper) keep(recs []wal.Record) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, rec := range recs {
		cp := rec
		cp.Values.Keys = slices.Clone(rec.Values.Keys)
		cp.Values.Vals = slices.Clone(rec.Values.Vals)
		k.handed, k.copies = append(k.handed, rec), append(k.copies, cp)
	}
}

func (k *recordKeeper) Append(rec wal.Record) error {
	k.keep([]wal.Record{rec})
	return k.next.Append(rec)
}

func (k *recordKeeper) AppendBatch(recs []wal.Record) error {
	k.keep(recs)
	return wal.AppendAll(k.next, recs)
}

// check fails the test for every kept record that differs from its copy,
// and when no record carried a value at all.
func (k *recordKeeper) check(t *testing.T) {
	t.Helper()
	k.mu.Lock()
	defer k.mu.Unlock()
	valued := 0
	for i, rec := range k.handed {
		if rec.Values.Len() > 0 {
			valued++
		}
		if !reflect.DeepEqual(rec, k.copies[i]) {
			t.Errorf("record %d (%s %s %s) changed after it was appended:\n got %+v\nwant %+v",
				i, rec.Instance, rec.Type, rec.Path, rec.Values, k.copies[i].Values)
		}
	}
	if valued == 0 {
		t.Errorf("none of %d records carried a value", len(k.handed))
	}
}

// TestRecordsAreNeverWrittenAfterAppend: the engine writes no container
// once a record made from it is queued (DESIGN.md §8), so records may
// share container slots instead of copying them. Every record of the
// golden travel and Figure 3 runs — sequential and on four workers, live
// and recovered from every crash point — of a block that loops on its
// exit condition, a subprocess, a forced activity and instances sharing a
// group-commit log (whose flusher encodes on its own goroutine; run it
// under -race) still equals the copy taken when it was appended, and a
// recovered sequential run repeats the program runs and the output of the
// crash-free one.
func TestRecordsAreNeverWrittenAfterAppend(t *testing.T) {
	for _, tc := range goldenCases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				run := func(log wal.Log, records []wal.Record) (*engine.Instance, error) {
					inj := rm.NewInjector()
					tc.script(inj)
					e := atmEngine(t, inj, engine.WithConcurrency(workers), engine.WithBus(obs.NewBus()))
					if records != nil {
						return engine.Recover(e, records, log)
					}
					inst, err := e.CreateInstanceID(tc.process, "inst-1", nil, log)
					if err != nil {
						t.Fatal(err)
					}
					return inst, inst.Start()
				}
				clean := &recordKeeper{next: wal.Discard}
				want, err := run(clean, nil)
				if err != nil || !want.Finished() {
					t.Fatalf("crash-free run: %v", err)
				}
				clean.check(t)
				for k := 1; k < len(clean.handed); k++ {
					mem := &wal.MemLog{CrashAfter: k}
					crashed := &recordKeeper{next: mem}
					if _, err := run(crashed, nil); !errors.Is(err, wal.ErrCrash) {
						t.Fatalf("k=%d: %v, want the injected crash", k, err)
					}
					crashed.check(t)
					recovered := &recordKeeper{next: wal.Discard}
					inst, err := run(recovered, mem.Records())
					if err != nil || !inst.Finished() {
						t.Fatalf("k=%d: recovery: %v", k, err)
					}
					recovered.check(t)
					// A write between queueing a record and appending it
					// reaches the log unseen by the keeper, but recovery
					// replays the changed output and so navigates otherwise.
					// (An rm.Injector counts attempts, so the re-executed
					// attempts of a retried case are decided anew.)
					if workers == 1 && !strings.Contains(tc.name, "retried") &&
						(!reflect.DeepEqual(inst.ProgramRuns(), want.ProgramRuns()) || !inst.Output().Equal(want.Output())) {
						t.Errorf("k=%d: recovered run %v with output %v, crash-free run %v with output %v",
							k, inst.ProgramRuns(), inst.Output(), want.ProgramRuns(), want.Output())
					}
				}
			})
		}
	}
	t.Run("block-loop", func(t *testing.T) {
		e, log := loopingBlockEngine(t), &recordKeeper{next: wal.Discard}
		inst, err := e.CreateInstance("Iter", nil, log)
		if err == nil {
			err = inst.Start()
		}
		if err != nil || !inst.Finished() {
			t.Fatalf("Iter did not finish: %v", err)
		}
		if _, ok := inst.ActivityState("L#2/s"); !ok {
			t.Fatal("the block did not loop to its third iteration")
		}
		log.check(t)
	})
	t.Run("subprocess", func(t *testing.T) {
		e, log := subprocessEngine(t), &recordKeeper{next: wal.Discard}
		inst, err := e.CreateInstance("Wrap", map[string]expr.Value{"x": expr.Int(3)}, log)
		if err == nil {
			err = inst.Start()
		}
		if err != nil || !inst.Finished() {
			t.Fatalf("Wrap did not finish: %v", err)
		}
		if got := inst.Output().MustGet("x"); !got.Equal(expr.Int(4)) {
			t.Fatalf("output x = %v, want 4 (3 through the subprocess, plus one)", got)
		}
		log.check(t)
	})
	t.Run("force-finish", func(t *testing.T) {
		e, log := manualEngine(t), &recordKeeper{next: wal.Discard}
		inst, err := e.CreateInstance("Approval", nil, log)
		if err == nil {
			err = inst.Start()
		}
		if err == nil {
			err = inst.ForceFinish("approve", 0)
		}
		if err != nil || !inst.Finished() {
			t.Fatalf("Approval did not finish: %v", err)
		}
		log.check(t)
	})
	t.Run("group-commit", func(t *testing.T) {
		inj := rm.NewInjector()
		inj.AbortAlways("book_car")
		inj.AbortAlways("F8")
		e := atmEngine(t, inj, engine.WithBus(obs.NewBus()))
		group, _ := groupLogOn(t, obs.NewRegistry(), 0)
		log := &recordKeeper{next: group}
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				inst, err := e.CreateInstance([]string{"travel", "fig3"}[i%2], nil, log)
				if err == nil {
					err = inst.Start()
				}
				errs[i] = err
			}(i)
		}
		wg.Wait()
		if err := group.Close(); err != nil {
			t.Fatal(err)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("instance %d: %v", i, err)
			}
		}
		log.check(t)
	})
}

// TestWritingInputFailsActivity: an activity's input may be its template's
// default itself, shared by every instance, so a program that writes it
// fails its activity — SetRC panics, MustSet panics, Set returns
// model.ErrReadOnly — whether or not a data connector filled the input,
// and the next instance of the template still sees the default.
func TestWritingInputFailsActivity(t *testing.T) {
	writes := map[string]func(in *model.Container) error{
		"SetRC":   func(in *model.Container) error { in.SetRC(7); return nil },
		"MustSet": func(in *model.Container) error { in.MustSet("x", expr.Int(9)); return nil },
		"Set":     func(in *model.Container) error { return in.Set("x", expr.Int(9)) },
	}
	for name, write := range writes {
		for _, wired := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wired=%v", name, wired), func(t *testing.T) {
				var seen []expr.Value
				e := engine.New(engine.WithMetrics(obs.NewRegistry()), engine.WithBus(obs.NewBus()))
				if err := e.RegisterProgram("p", engine.ProgramFunc(func(inv *engine.Invocation) error {
					seen = append(seen, inv.In.MustGet("x"), inv.In.MustGet(model.RCMember))
					if inv.InstanceID == "writer" {
						return write(inv.In)
					}
					inv.Out.SetRC(0)
					return nil
				})); err != nil {
					t.Fatal(err)
				}
				p := model.NewProcess("Scribble")
				if err := p.Types.Register(&model.StructType{Name: "IO", Members: []model.Member{
					{Name: "x", Basic: model.Long, Default: expr.Int(5)},
				}}); err != nil {
					t.Fatal(err)
				}
				p.InputType = "IO"
				p.Activities = []*model.Activity{{Name: "W", Kind: model.KindProgram, Program: "p", InputType: "IO"}}
				if wired {
					p.Data = []*model.DataConnector{{From: model.ScopeRef, To: "W", Maps: []model.DataMap{{FromPath: "x", ToPath: "x"}}}}
				}
				if err := e.RegisterProcess(p); err != nil {
					t.Fatal(err)
				}
				writer, err := e.CreateInstanceID("Scribble", "writer", nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				err = writer.Start()
				var af *engine.ActivityFailure
				if !errors.As(err, &af) || af.Path != "W" {
					t.Fatalf("writing inv.In: Start = %v, want W's activity failure", err)
				}
				cause := af.Cause
				var pe *engine.PanicError
				if errors.As(cause, &pe) {
					cause, _ = pe.Value.(error)
				}
				if !errors.Is(cause, model.ErrReadOnly) {
					t.Fatalf("activity failed with %v, want model.ErrReadOnly", af.Cause)
				}
				reader, err := e.CreateInstanceID("Scribble", "reader", nil, nil)
				if err == nil {
					err = reader.Start()
				}
				if err != nil || !reader.Finished() {
					t.Fatalf("the next instance: %v", err)
				}
				want := []expr.Value{expr.Int(5), expr.Int(0), expr.Int(5), expr.Int(0)}
				if !reflect.DeepEqual(seen, want) {
					t.Fatalf("inputs seen (x, RC per instance) = %v, want %v", seen, want)
				}
			})
		}
	}
}

// loopingBlockEngine registers "Iter": a block L whose one activity maps
// its RC into the block's output, and whose exit condition holds on the
// third iteration.
func loopingBlockEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.WithMetrics(obs.NewRegistry()), engine.WithBus(obs.NewBus()))
	runs := 0
	if err := e.RegisterProgram("count", engine.ProgramFunc(func(inv *engine.Invocation) error {
		runs++
		inv.Out.SetRC(int64(max(0, 3-runs)))
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	p := model.NewProcess("Iter")
	if err := p.Types.Register(&model.StructType{Name: "S", Members: []model.Member{
		{Name: "n", Basic: model.Long, Default: expr.Int(-1)},
	}}); err != nil {
		t.Fatal(err)
	}
	p.OutputType = "S"
	blk := &model.Graph{
		OutputType: "S",
		Activities: []*model.Activity{{Name: "s", Kind: model.KindProgram, Program: "count"}},
		Data: []*model.DataConnector{
			{From: "s", To: model.ScopeRef, Maps: []model.DataMap{{FromPath: "RC", ToPath: "n"}}},
		},
	}
	p.Activities = []*model.Activity{{
		Name: "L", Kind: model.KindBlock, Block: blk, OutputType: "S",
		Exit: expr.MustParse("n = 0"),
	}}
	p.Data = []*model.DataConnector{
		{From: "L", To: model.ScopeRef, Maps: []model.DataMap{{FromPath: "n", ToPath: "n"}}},
	}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	return e
}

// subprocessEngine registers "Leaf", which adds one to its input x, and
// "Wrap", whose block B calls Leaf with the process input and maps Leaf's
// output to the process output.
func subprocessEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.WithMetrics(obs.NewRegistry()), engine.WithBus(obs.NewBus()))
	if err := e.RegisterProgram("inc", engine.ProgramFunc(func(inv *engine.Invocation) error {
		inv.Out.MustSet("x", expr.Int(inv.In.MustGet("x").AsInt()+1))
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	io := &model.StructType{Name: "IO", Members: []model.Member{{Name: "x", Basic: model.Long}}}
	through := []model.DataMap{{FromPath: "x", ToPath: "x"}}
	leaf := model.NewProcess("Leaf")
	if err := leaf.Types.Register(io); err != nil {
		t.Fatal(err)
	}
	leaf.InputType, leaf.OutputType = "IO", "IO"
	leaf.Activities = []*model.Activity{{Name: "w", Kind: model.KindProgram, Program: "inc", InputType: "IO", OutputType: "IO"}}
	leaf.Data = []*model.DataConnector{
		{From: model.ScopeRef, To: "w", Maps: through},
		{From: "w", To: model.ScopeRef, Maps: through},
	}
	if err := e.RegisterProcess(leaf); err != nil {
		t.Fatal(err)
	}
	wrap := model.NewProcess("Wrap")
	if err := wrap.Types.Register(&model.StructType{Name: "IO", Members: io.Members}); err != nil {
		t.Fatal(err)
	}
	wrap.InputType, wrap.OutputType = "IO", "IO"
	blk := &model.Graph{
		InputType: "IO", OutputType: "IO",
		Activities: []*model.Activity{{Name: "call", Kind: model.KindProcess, Subprocess: "Leaf", InputType: "IO", OutputType: "IO"}},
		Data: []*model.DataConnector{
			{From: model.ScopeRef, To: "call", Maps: through},
			{From: "call", To: model.ScopeRef, Maps: through},
		},
	}
	wrap.Activities = []*model.Activity{{Name: "B", Kind: model.KindBlock, Block: blk, InputType: "IO", OutputType: "IO"}}
	wrap.Data = []*model.DataConnector{
		{From: model.ScopeRef, To: "B", Maps: through},
		{From: "B", To: model.ScopeRef, Maps: through},
	}
	if err := e.RegisterProcess(wrap); err != nil {
		t.Fatal(err)
	}
	return e
}

// manualEngine registers "Approval": a manual activity approve on alice's
// worklist, then ship.
func manualEngine(t *testing.T) *engine.Engine {
	t.Helper()
	dir := org.NewDirectory()
	if err := dir.AddPerson(org.Person{Name: "alice", Roles: []string{"clerk"}}); err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.WithOrganization(dir), engine.WithMetrics(obs.NewRegistry()), engine.WithBus(obs.NewBus()))
	if err := e.RegisterProgram("ok", engine.ProgramFunc(func(inv *engine.Invocation) error {
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	p := model.NewProcess("Approval")
	p.Activities = []*model.Activity{
		{Name: "approve", Kind: model.KindProgram, Program: "ok",
			Start: model.StartManual, Staff: model.Staff{Role: "clerk"}},
		{Name: "ship", Kind: model.KindProgram, Program: "ok"},
	}
	p.Control = []*model.ControlConnector{
		{From: "approve", To: "ship", Condition: expr.MustParse("RC = 0")},
	}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	return e
}
