package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/model"
	"repro/internal/org"
)

// okProgram commits and copies the input member "x" (when present in both
// containers) to its output, for data-flow checks.
func okProgram(inv *Invocation) error {
	if v, ok := inv.In.Get("x"); ok {
		if _, has := inv.Out.Get("x"); has {
			return inv.Out.Set("x", v)
		}
	}
	inv.Out.SetRC(0)
	return nil
}

// abortProgram aborts (RC=1).
func abortProgram(inv *Invocation) error {
	inv.Out.SetRC(1)
	return nil
}

func newTestEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e := New(opts...)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.RegisterProgram("ok", ProgramFunc(okProgram)))
	must(e.RegisterProgram("abort", ProgramFunc(abortProgram)))
	must(e.RegisterProgram("boom", ProgramFunc(func(inv *Invocation) error {
		return errors.New("infrastructure failure")
	})))
	return e
}

// chainProcess builds A -> B -> C with RC=0 transition conditions.
func chainProcess(name string, progs ...string) *model.Process {
	p := model.NewProcess(name)
	names := []string{"A", "B", "C"}
	for i, n := range names {
		prog := "ok"
		if i < len(progs) {
			prog = progs[i]
		}
		p.Activities = append(p.Activities, &model.Activity{Name: n, Kind: model.KindProgram, Program: prog})
	}
	p.Control = []*model.ControlConnector{
		{From: "A", To: "B", Condition: expr.MustParse("RC = 0")},
		{From: "B", To: "C", Condition: expr.MustParse("RC = 0")},
	}
	return p
}

func runToEnd(t *testing.T, e *Engine, procName string, input map[string]expr.Value) *Instance {
	t.Helper()
	inst, err := e.CreateInstance(procName, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return inst
}

// TestDefaultClockStampsWallSeconds checks the default engine clock, one
// monotonic read added to the wall time at process start: every stamp of
// a run lies within a second of time.Now().Unix() around it.
func TestDefaultClockStampsWallSeconds(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	before := time.Now().Unix()
	inst := runToEnd(t, e, "Chain", nil)
	after := time.Now().Unix()
	for _, ev := range inst.Trail() {
		if ev.At < before-1 || ev.At > after+1 {
			t.Fatalf("%v stamped %d, wall clock read %d..%d", ev.Kind, ev.At, before, after)
		}
	}
}

func programsInOrder(inst *Instance) []string {
	var out []string
	for _, r := range inst.ProgramRuns() {
		out = append(out, fmt.Sprintf("%s:%d", r.Path, r.RC))
	}
	return out
}

func TestChainAllCommit(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterProcess(chainProcess("Chain")); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "Chain", nil)
	if !inst.Finished() {
		t.Fatal("instance not finished")
	}
	got := programsInOrder(inst)
	want := []string{"A:0", "B:0", "C:0"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("runs = %v, want %v", got, want)
	}
	for _, n := range []string{"A", "B", "C"} {
		if s, ok := inst.ActivityState(n); !ok || s != StateTerminated {
			t.Errorf("state(%s) = %v", n, s)
		}
	}
}

func TestDeadPathElimination(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterProcess(chainProcess("Chain", "ok", "abort", "ok")); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "Chain", nil)
	if !inst.Finished() {
		t.Fatal("instance not finished despite dead paths")
	}
	got := programsInOrder(inst)
	want := []string{"A:0", "B:1"} // C never runs
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("runs = %v, want %v", got, want)
	}
	// C was terminated by DPE.
	var sawDead bool
	for _, ev := range inst.Trail() {
		if ev.Kind == EvDeadPath && ev.Path == "C" {
			sawDead = true
		}
	}
	if !sawDead {
		t.Fatal("no dead-path event for C")
	}
}

// diamond builds A -> (B, C) -> D with configurable conditions and join.
func diamond(name, condAB, condAC string, join model.JoinKind) *model.Process {
	p := model.NewProcess(name)
	for _, n := range []string{"A", "B", "C", "D"} {
		p.Activities = append(p.Activities, &model.Activity{Name: n, Kind: model.KindProgram, Program: "ok"})
	}
	p.Graph.Activity("D").Join = join
	p.Control = []*model.ControlConnector{
		{From: "A", To: "B", Condition: expr.MustParse(condAB)},
		{From: "A", To: "C", Condition: expr.MustParse(condAC)},
		{From: "B", To: "D", Condition: expr.MustParse("RC = 0")},
		{From: "C", To: "D", Condition: expr.MustParse("RC = 0")},
	}
	return p
}

func TestAndJoin(t *testing.T) {
	e := newTestEngine(t)
	// One branch dead: D must be dead-path eliminated under AND.
	if err := e.RegisterProcess(diamond("D1", "RC = 0", "RC <> 0", model.JoinAnd)); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "D1", nil)
	if !inst.Finished() {
		t.Fatal("not finished")
	}
	if s, _ := inst.ActivityState("D"); s != StateTerminated {
		t.Fatal("D not terminated")
	}
	got := strings.Join(programsInOrder(inst), ",")
	if got != "A:0,B:0" {
		t.Fatalf("runs = %s", got)
	}
}

func TestOrJoin(t *testing.T) {
	e := newTestEngine(t)
	// One branch dead: D still runs under OR (after ALL connectors are
	// evaluated — the synchronizing or-join of §3.2).
	if err := e.RegisterProcess(diamond("D2", "RC = 0", "RC <> 0", model.JoinOr)); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "D2", nil)
	got := strings.Join(programsInOrder(inst), ",")
	if got != "A:0,B:0,D:0" {
		t.Fatalf("runs = %s", got)
	}
}

func TestOrJoinAllFalse(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterProcess(diamond("D3", "RC <> 0", "RC <> 0", model.JoinOr)); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "D3", nil)
	if !inst.Finished() {
		t.Fatal("not finished")
	}
	got := strings.Join(programsInOrder(inst), ",")
	if got != "A:0" {
		t.Fatalf("runs = %s", got)
	}
}

func TestBothBranchesAndJoin(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterProcess(diamond("D4", "RC = 0", "RC = 0", model.JoinAnd)); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "D4", nil)
	got := strings.Join(programsInOrder(inst), ",")
	if got != "A:0,B:0,C:0,D:0" {
		t.Fatalf("runs = %s", got)
	}
}

// flakyProgram aborts the first n invocations per activity path, then
// commits.
type flakyProgram struct {
	failures map[string]int
}

func (f *flakyProgram) Run(inv *Invocation) error {
	if f.failures[inv.Path] > 0 {
		f.failures[inv.Path]--
		inv.Out.SetRC(1)
		return nil
	}
	inv.Out.SetRC(0)
	return nil
}

func TestExitConditionLoop(t *testing.T) {
	e := New()
	flaky := &flakyProgram{failures: map[string]int{"R": 2}}
	if err := e.RegisterProgram("flaky", flaky); err != nil {
		t.Fatal(err)
	}
	p := model.NewProcess("Retry")
	p.Activities = []*model.Activity{{
		Name: "R", Kind: model.KindProgram, Program: "flaky",
		Exit: expr.MustParse("RC = 0"), // §3.2: retried until the exit condition holds
	}}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "Retry", nil)
	runs := inst.ProgramRuns()
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(runs))
	}
	if runs[0].RC != 1 || runs[1].RC != 1 || runs[2].RC != 0 {
		t.Fatalf("rcs = %+v", runs)
	}
	if runs[2].Iter != 2 {
		t.Fatalf("final iter = %d", runs[2].Iter)
	}
}

// sagaStateTypes registers a State_1..State_n structure.
func sagaStateTypes(p *model.Process, n int) {
	members := make([]model.Member, n)
	for i := range members {
		members[i] = model.Member{Name: fmt.Sprintf("State_%d", i+1), Basic: model.Long, Default: expr.Int(-1)}
	}
	if err := p.Types.Register(&model.StructType{Name: "States", Members: members}); err != nil {
		panic(err)
	}
}

// blockProcess wraps a two-step chain in a block whose output records the
// steps' return codes, as the saga forward block of Figure 2 does.
func blockProcess(name string, progs [2]string) *model.Process {
	p := model.NewProcess(name)
	sagaStateTypes(p, 2)
	p.OutputType = "States"
	inner := &model.Graph{
		OutputType: "States",
		Activities: []*model.Activity{
			{Name: "s1", Kind: model.KindProgram, Program: progs[0]},
			{Name: "s2", Kind: model.KindProgram, Program: progs[1]},
		},
		Control: []*model.ControlConnector{
			{From: "s1", To: "s2", Condition: expr.MustParse("RC = 0")},
		},
		Data: []*model.DataConnector{
			{From: "s1", To: model.ScopeRef, Maps: []model.DataMap{{FromPath: "RC", ToPath: "State_1"}}},
			{From: "s2", To: model.ScopeRef, Maps: []model.DataMap{{FromPath: "RC", ToPath: "State_2"}}},
		},
	}
	p.Activities = []*model.Activity{
		{Name: "B", Kind: model.KindBlock, Block: inner, OutputType: "States"},
	}
	p.Data = []*model.DataConnector{
		{From: "B", To: model.ScopeRef, Maps: []model.DataMap{
			{FromPath: "State_1", ToPath: "State_1"}, {FromPath: "State_2", ToPath: "State_2"},
		}},
	}
	return p
}

func TestBlockStateMapping(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterProcess(blockProcess("BP", [2]string{"ok", "ok"})); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "BP", nil)
	out := inst.Output()
	if out.MustGet("State_1").AsInt() != 0 || out.MustGet("State_2").AsInt() != 0 {
		t.Fatalf("output = %s", out)
	}
}

func TestBlockDeadPathLeavesDefault(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterProcess(blockProcess("BP2", [2]string{"abort", "ok"})); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "BP2", nil)
	out := inst.Output()
	// s1 aborted (State_1 = 1), s2 never ran (State_2 stays at default -1).
	if out.MustGet("State_1").AsInt() != 1 {
		t.Fatalf("State_1 = %v", out.MustGet("State_1"))
	}
	if out.MustGet("State_2").AsInt() != -1 {
		t.Fatalf("State_2 = %v", out.MustGet("State_2"))
	}
}

func TestBlockLoop(t *testing.T) {
	// A block whose exit condition retries the whole block until its inner
	// activity commits: inner scopes must be fresh per iteration.
	e := New()
	flaky := &flakyProgram{failures: map[string]int{}}
	// Fail the first two block iterations (paths differ per iteration).
	flaky.failures["L#0/s"] = 1
	flaky.failures["L#1/s"] = 1
	if err := e.RegisterProgram("flaky", flaky); err != nil {
		t.Fatal(err)
	}
	p := model.NewProcess("BlockLoop")
	sagaStateTypes(p, 1)
	inner := &model.Graph{
		OutputType: "States",
		Activities: []*model.Activity{{Name: "s", Kind: model.KindProgram, Program: "flaky"}},
		Data: []*model.DataConnector{
			{From: "s", To: model.ScopeRef, Maps: []model.DataMap{{FromPath: "RC", ToPath: "State_1"}}},
		},
	}
	p.Activities = []*model.Activity{{
		Name: "L", Kind: model.KindBlock, Block: inner, OutputType: "States",
		Exit: expr.MustParse("State_1 = 0"),
	}}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "BlockLoop", nil)
	if !inst.Finished() {
		t.Fatal("not finished")
	}
	runs := inst.ProgramRuns()
	if len(runs) != 3 {
		t.Fatalf("inner runs = %d, want 3 (two failed block iterations + success)", len(runs))
	}
	if runs[0].Path != "L#0/s" || runs[1].Path != "L#1/s" || runs[2].Path != "L#2/s" {
		t.Fatalf("paths = %+v", runs)
	}
}

func TestSubprocess(t *testing.T) {
	e := newTestEngine(t)
	child := model.NewProcess("Child")
	child.Types.Register(&model.StructType{Name: "IO", Members: []model.Member{{Name: "x", Basic: model.Long}}})
	child.InputType, child.OutputType = "IO", "IO"
	child.Activities = []*model.Activity{{Name: "w", Kind: model.KindProgram, Program: "ok", InputType: "IO", OutputType: "IO"}}
	child.Data = []*model.DataConnector{
		{From: model.ScopeRef, To: "w", Maps: []model.DataMap{{FromPath: "x", ToPath: "x"}}},
		{From: "w", To: model.ScopeRef, Maps: []model.DataMap{{FromPath: "x", ToPath: "x"}}},
	}
	if err := e.RegisterProcess(child); err != nil {
		t.Fatal(err)
	}

	parent := model.NewProcess("Parent")
	parent.Types.Register(&model.StructType{Name: "IO", Members: []model.Member{{Name: "x", Basic: model.Long}}})
	parent.InputType, parent.OutputType = "IO", "IO"
	parent.Activities = []*model.Activity{{
		Name: "S", Kind: model.KindProcess, Subprocess: "Child", InputType: "IO", OutputType: "IO",
	}}
	parent.Data = []*model.DataConnector{
		{From: model.ScopeRef, To: "S", Maps: []model.DataMap{{FromPath: "x", ToPath: "x"}}},
		{From: "S", To: model.ScopeRef, Maps: []model.DataMap{{FromPath: "x", ToPath: "x"}}},
	}
	if err := e.RegisterProcess(parent); err != nil {
		t.Fatal(err)
	}

	inst := runToEnd(t, e, "Parent", map[string]expr.Value{"x": expr.Int(41)})
	if !inst.Finished() {
		t.Fatal("not finished")
	}
	if got := inst.Output().MustGet("x").AsInt(); got != 41 {
		t.Fatalf("x = %d, want 41 (flow through subprocess)", got)
	}
	runs := inst.ProgramRuns()
	if len(runs) != 1 || runs[0].Path != "S#0/w" {
		t.Fatalf("runs = %+v", runs)
	}
}

// TestSubprocessSkipsMismatchedKinds pins the engine's side of
// model.Container.CopyCommon: a member the caller and the subprocess both
// have but with kinds that do not assign keeps its default across the
// bridge, in both directions, while every other member is copied and the
// instance finishes.
func TestSubprocessSkipsMismatchedKinds(t *testing.T) {
	e := newTestEngine(t)
	var seen *model.Container
	if err := e.RegisterProgram("peek", ProgramFunc(func(inv *Invocation) error {
		seen = inv.In.Clone()
		inv.Out.MustSet("x", expr.Int(inv.In.MustGet("x").AsInt()+1))
		inv.Out.MustSet("y", expr.String_("child"))
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	child := model.NewProcess("Child")
	child.Types.Register(&model.StructType{Name: "IO", Members: []model.Member{
		{Name: "x", Basic: model.Long}, {Name: "y", Basic: model.String},
	}})
	child.InputType, child.OutputType = "IO", "IO"
	child.Activities = []*model.Activity{{Name: "w", Kind: model.KindProgram, Program: "peek", InputType: "IO", OutputType: "IO"}}
	child.Data = []*model.DataConnector{
		{From: model.ScopeRef, To: "w", Maps: []model.DataMap{{FromPath: "x", ToPath: "x"}, {FromPath: "y", ToPath: "y"}}},
		{From: "w", To: model.ScopeRef, Maps: []model.DataMap{{FromPath: "x", ToPath: "x"}, {FromPath: "y", ToPath: "y"}}},
	}
	if err := e.RegisterProcess(child); err != nil {
		t.Fatal(err)
	}
	parent := model.NewProcess("Parent")
	parent.Types.Register(&model.StructType{Name: "IO", Members: []model.Member{
		{Name: "x", Basic: model.Long}, {Name: "y", Basic: model.Long, Default: expr.Int(9)},
	}})
	parent.InputType, parent.OutputType = "IO", "IO"
	parent.Activities = []*model.Activity{{
		Name: "S", Kind: model.KindProcess, Subprocess: "Child", InputType: "IO", OutputType: "IO",
	}}
	parent.Data = []*model.DataConnector{
		{From: model.ScopeRef, To: "S", Maps: []model.DataMap{{FromPath: "x", ToPath: "x"}, {FromPath: "y", ToPath: "y"}}},
		{From: "S", To: model.ScopeRef, Maps: []model.DataMap{{FromPath: "x", ToPath: "x"}, {FromPath: "y", ToPath: "y"}}},
	}
	if err := e.RegisterProcess(parent); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "Parent", map[string]expr.Value{"x": expr.Int(41), "y": expr.Int(5)})
	if !inst.Finished() {
		t.Fatalf("not finished: %v", inst.Err())
	}
	if x, y := seen.MustGet("x").AsInt(), seen.MustGet("y").AsString(); x != 41 || y != "" {
		t.Errorf("subprocess input x=%d y=%q, want 41 and the default \"\"", x, y)
	}
	out := inst.Output()
	if x, y := out.MustGet("x").AsInt(), out.MustGet("y").AsInt(); x != 42 || y != 9 {
		t.Errorf("output x=%d y=%d, want 42 and the default 9", x, y)
	}
}

func TestDataFlowActToAct(t *testing.T) {
	e := newTestEngine(t)
	p := model.NewProcess("Flow")
	p.Types.Register(&model.StructType{Name: "IO", Members: []model.Member{{Name: "x", Basic: model.Long}}})
	p.InputType, p.OutputType = "IO", "IO"
	p.Activities = []*model.Activity{
		{Name: "A", Kind: model.KindProgram, Program: "ok", InputType: "IO", OutputType: "IO"},
		{Name: "B", Kind: model.KindProgram, Program: "ok", InputType: "IO", OutputType: "IO"},
	}
	p.Control = []*model.ControlConnector{{From: "A", To: "B"}}
	p.Data = []*model.DataConnector{
		{From: model.ScopeRef, To: "A", Maps: []model.DataMap{{FromPath: "x", ToPath: "x"}}},
		{From: "A", To: "B", Maps: []model.DataMap{{FromPath: "x", ToPath: "x"}}},
		{From: "B", To: model.ScopeRef, Maps: []model.DataMap{{FromPath: "x", ToPath: "x"}}},
	}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "Flow", map[string]expr.Value{"x": expr.Int(7)})
	if got := inst.Output().MustGet("x").AsInt(); got != 7 {
		t.Fatalf("x = %d", got)
	}
}

func TestProgramErrorFailsInstance(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterProcess(chainProcess("Boom", "ok", "boom", "ok")); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("Boom", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err == nil {
		t.Fatal("program error not surfaced")
	}
	if inst.Finished() {
		t.Fatal("failed instance reported finished")
	}
}

func TestRegisterErrors(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterProgram("", nil); err == nil {
		t.Error("empty program registration accepted")
	}
	if err := e.RegisterProgram("ok", ProgramFunc(okProgram)); err == nil {
		t.Error("duplicate program accepted")
	}
	// Unregistered program in process.
	p := chainProcess("X", "ghost", "ok", "ok")
	if err := e.RegisterProcess(p); err == nil {
		t.Error("process with unregistered program accepted")
	}
	// Duplicate process.
	if err := e.RegisterProcess(chainProcess("Dup")); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(chainProcess("Dup")); err == nil {
		t.Error("duplicate process accepted")
	}
	// Unknown process instance.
	if _, err := e.CreateInstance("Ghost", nil, nil); err == nil {
		t.Error("instance of unknown process accepted")
	}
	// Bad input member.
	if _, err := e.CreateInstance("Dup", map[string]expr.Value{"zz": expr.Int(1)}, nil); err == nil {
		t.Error("bad input member accepted")
	}
	// Double start.
	inst, _ := e.CreateInstance("Dup", nil, nil)
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err == nil {
		t.Error("double start accepted")
	}
}

func TestManualActivityWorklistFlow(t *testing.T) {
	dir := org.NewDirectory()
	if err := dir.AddPerson(org.Person{Name: "carol", Roles: []string{"manager"}}); err != nil {
		t.Fatal(err)
	}
	if err := dir.AddPerson(org.Person{Name: "alice", Roles: []string{"clerk"}, Manager: "carol"}); err != nil {
		t.Fatal(err)
	}
	if err := dir.AddPerson(org.Person{Name: "bob", Roles: []string{"clerk"}, Manager: "carol"}); err != nil {
		t.Fatal(err)
	}
	now := int64(1000)
	e := New(WithOrganization(dir), WithClock(func() int64 { return now }))
	if err := e.RegisterProgram("ok", ProgramFunc(okProgram)); err != nil {
		t.Fatal(err)
	}

	p := model.NewProcess("Approval")
	p.Activities = []*model.Activity{
		{Name: "prepare", Kind: model.KindProgram, Program: "ok"},
		{Name: "approve", Kind: model.KindProgram, Program: "ok",
			Start: model.StartManual, Staff: model.Staff{Role: "clerk"},
			NotifySeconds: 60, NotifyRole: "manager"},
	}
	p.Control = []*model.ControlConnector{{From: "prepare", To: "approve", Condition: expr.MustParse("RC = 0")}}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}

	inst, err := e.CreateInstance("Approval", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if inst.Finished() {
		t.Fatal("finished before manual step")
	}
	if inst.PendingWork() != 1 {
		t.Fatalf("pending work = %d", inst.PendingWork())
	}
	// Both clerks see the item.
	la, lb := e.Worklists().List("alice"), e.Worklists().List("bob")
	if len(la) != 1 || len(lb) != 1 {
		t.Fatalf("worklists: alice=%d bob=%d", len(la), len(lb))
	}
	// Deadline notification fires for the manager.
	now = 1061
	notes := e.Worklists().CheckDeadlines(now)
	if len(notes) != 1 || notes[0].Notified[0] != "carol" {
		t.Fatalf("notifications: %+v", notes)
	}
	// Bob selects and the process completes.
	if err := inst.SelectWork("bob", la[0].ID); err != nil {
		t.Fatal(err)
	}
	if !inst.Finished() {
		t.Fatal("not finished after manual completion")
	}
	if len(e.Worklists().List("alice")) != 0 {
		t.Fatal("item still on alice's list")
	}
}

func TestManualWithoutOrganizationRejected(t *testing.T) {
	e := newTestEngine(t)
	p := model.NewProcess("M")
	p.Activities = []*model.Activity{{
		Name: "m", Kind: model.KindProgram, Program: "ok",
		Start: model.StartManual, Staff: model.Staff{Role: "clerk"},
	}}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateInstance("M", nil, nil); err == nil {
		t.Fatal("manual process without organization accepted")
	}
}

func TestEmptyProcessFinishesImmediately(t *testing.T) {
	e := newTestEngine(t)
	p := model.NewProcess("Empty")
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "Empty", nil)
	if !inst.Finished() {
		t.Fatal("empty process did not finish")
	}
}

func TestParallelStartActivities(t *testing.T) {
	e := newTestEngine(t)
	p := model.NewProcess("Par")
	for _, n := range []string{"A", "B", "C"} {
		p.Activities = append(p.Activities, &model.Activity{Name: n, Kind: model.KindProgram, Program: "ok"})
	}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	inst := runToEnd(t, e, "Par", nil)
	if got := len(inst.ProgramRuns()); got != 3 {
		t.Fatalf("runs = %d", got)
	}
}

func TestStateStrings(t *testing.T) {
	for _, s := range []State{StateWaiting, StateReady, StateRunning, StateTerminated, State(42)} {
		if s.String() == "" {
			t.Error("empty state name")
		}
	}
	for k := EvCreated; k <= EvDone+1; k++ {
		if k.String() == "" {
			t.Error("empty event kind name")
		}
	}
	ev := Event{Kind: EvConnector, From: "a", To: "b", Value: true}
	if !strings.Contains(ev.String(), "a -> b") {
		t.Error("connector event string")
	}
	if (Event{Kind: EvFinished, Path: "x", RC: 1}).String() == "" {
		t.Error("finished event string")
	}
	if (Event{Kind: EvStarted, Path: "x", Iter: 2}).String() == "" {
		t.Error("started event string")
	}
}

// TestIndirectRecursionImpossible documents that cross-template recursion
// cannot be constructed: subprocess references must already be registered,
// so registration order is forcibly topological, and self-invocation is
// rejected by validation.
func TestIndirectRecursionImpossible(t *testing.T) {
	e := newTestEngine(t)
	// B references A before A exists: rejected.
	b := model.NewProcess("B")
	b.Activities = []*model.Activity{{Name: "callA", Kind: model.KindProcess, Subprocess: "A"}}
	if err := e.RegisterProcess(b); err == nil {
		t.Fatal("forward reference accepted")
	}
	// Self reference: rejected.
	a := model.NewProcess("A")
	a.Activities = []*model.Activity{{Name: "callA", Kind: model.KindProcess, Subprocess: "A"}}
	if err := e.RegisterProcess(a); err == nil {
		t.Fatal("self reference accepted")
	}
}

func TestInstanceAccessors(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterProcess(chainProcess("Acc")); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("Acc", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.ID() == "" || inst.ProcessName() != "Acc" {
		t.Fatalf("accessors: %q %q", inst.ID(), inst.ProcessName())
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if inst.Err() != nil {
		t.Fatal(inst.Err())
	}
	if e.Directory() != nil {
		t.Fatal("no directory expected")
	}
}

// TestConditionOnMissingMemberFails pins the error of a transition or exit
// condition that references a member its container lacks: registration
// refuses it, by name, before any condition is bound to slots (the bound
// evaluation's own error for such a reference is TestBoundConditionMatchesUnbound's).
func TestConditionOnMissingMemberFails(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(p *model.Process)
	}{
		{"transition", `model: process "Cond" invalid: process connector "A" -> "B" transition condition: model: structure "Default" has no member "missing"`,
			func(p *model.Process) { p.Control[0].Condition = expr.MustParse("RC = 0 AND missing = 1") }},
		{"exit", `model: process "Cond" invalid: process activity "C" exit condition: model: structure "Default" has no member "missing"`,
			func(p *model.Process) { p.Activities[2].Exit = expr.MustParse("missing.deep = 1") }},
	} {
		e := newTestEngine(t)
		p := chainProcess("Cond")
		tc.edit(p)
		err := e.RegisterProcess(p)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: %v, want %s", tc.name, err, tc.want)
		}
	}
}
