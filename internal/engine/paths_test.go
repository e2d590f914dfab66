package engine

import (
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/expr"
	"repro/internal/model"
	"repro/internal/wal"
)

// pathsEngine registers "Leaf" (w, B[ x ]) and "Paths":
//
//	A
//	Outer[ s1, Inner[ deep, call(Leaf) ] ]       blocks nested two deep
//	L[ s, N[ d, sub(Leaf) ] ] until n = 0        a block looping to L#2
//
// s aborts in L's iterations 0 and 1, and its RC is L's n, so L runs
// three times and N opens once in each.
func pathsEngine(t *testing.T) *Engine {
	t.Helper()
	e := newTestEngine(t)
	if err := e.RegisterProgram("loopy", ProgramFunc(func(inv *Invocation) error {
		rc := int64(1)
		if strings.HasPrefix(inv.Path, "L#2/") {
			rc = 0
		}
		inv.Out.SetRC(rc)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	leaf := model.NewProcess("Leaf")
	leaf.Activities = []*model.Activity{
		{Name: "w", Kind: model.KindProgram, Program: "ok"},
		{Name: "B", Kind: model.KindBlock, Block: &model.Graph{Activities: []*model.Activity{
			{Name: "x", Kind: model.KindProgram, Program: "ok"},
		}}},
	}
	if err := e.RegisterProcess(leaf); err != nil {
		t.Fatal(err)
	}
	p := model.NewProcess("Paths")
	if err := p.Types.Register(&model.StructType{Name: "S", Members: []model.Member{
		{Name: "n", Basic: model.Long, Default: expr.Int(-1)},
	}}); err != nil {
		t.Fatal(err)
	}
	inner := &model.Graph{Activities: []*model.Activity{
		{Name: "deep", Kind: model.KindProgram, Program: "ok"},
		{Name: "call", Kind: model.KindProcess, Subprocess: "Leaf"},
	}}
	outer := &model.Graph{Activities: []*model.Activity{
		{Name: "s1", Kind: model.KindProgram, Program: "ok"},
		{Name: "Inner", Kind: model.KindBlock, Block: inner},
	}}
	nested := &model.Graph{Activities: []*model.Activity{
		{Name: "d", Kind: model.KindProgram, Program: "ok"},
		{Name: "sub", Kind: model.KindProcess, Subprocess: "Leaf"},
	}}
	loop := &model.Graph{
		OutputType: "S",
		Activities: []*model.Activity{
			{Name: "s", Kind: model.KindProgram, Program: "loopy"},
			{Name: "N", Kind: model.KindBlock, Block: nested},
		},
		Data: []*model.DataConnector{
			{From: "s", To: model.ScopeRef, Maps: []model.DataMap{{FromPath: "RC", ToPath: "n"}}},
		},
	}
	p.Activities = []*model.Activity{
		{Name: "A", Kind: model.KindProgram, Program: "ok"},
		{Name: "Outer", Kind: model.KindBlock, Block: outer},
		{Name: "L", Kind: model.KindBlock, Block: loop, OutputType: "S", Exit: expr.MustParse("n = 0")},
	}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	return e
}

// checkActPaths compares every activity path of every scope opened so far
// with the path joined from scratch: the owner's path, "#", the iteration
// the owner was in when it opened the scope, "/" and the activity's name.
// An owner opens one scope per iteration, so that iteration is the number
// of scopes it opened before. It returns how many nested scopes share
// their plan's joined paths and how many built their own.
func checkActPaths(t *testing.T, inst *Instance) (shared, own int) {
	t.Helper()
	opened := map[*actState]int{}
	iterAt := map[*scope]int{}
	for _, sc := range inst.scopes {
		if sc.owner != nil {
			iterAt[sc] = opened[sc.owner]
			opened[sc.owner]++
		}
	}
	var scratch func(sc *scope, slot int32) string
	scratch = func(sc *scope, slot int32) string {
		name := sc.plan.acts[slot].act.Name
		if sc.owner == nil {
			return name
		}
		return scratch(inst.scopeOf(sc.owner), sc.owner.slot) + "#" + strconv.Itoa(iterAt[sc]) + "/" + name
	}
	for _, sc := range inst.scopes {
		for slot := range sc.acts {
			if got, want := sc.actPath(int32(slot)), scratch(sc, int32(slot)); got != want {
				t.Errorf("scope %d slot %d: actPath %q, joined from scratch %q", sc.index, slot, got, want)
			}
		}
		if sc.owner == nil {
			continue
		}
		if ap := inst.planOf(sc.owner); unsafe.StringData(sc.joined) == unsafe.StringData(ap.joined) {
			shared++
		} else {
			own++
		}
	}
	return shared, own
}

// TestActPathsJoinFromScratch checks the scope paths navigation builds —
// shared from the plan for scopes opened in iteration 0 below owners all
// in iteration 0, joined per instance otherwise — against paths joined
// from scratch, live and after recovering every prefix of the log.
func TestActPathsJoinFromScratch(t *testing.T) {
	e := pathsEngine(t)
	log := &wal.MemLog{}
	inst, err := e.CreateInstance("Paths", nil, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil || !inst.Finished() {
		t.Fatalf("Start: %v, finished %v", err, inst.Finished())
	}
	// Outer#0, Outer#0/Inner#0, Outer#0/Inner#0/call#0, L#0, L#0/N#0 and
	// L#0/N#0/sub#0 share; the B#0 below each call, L#1, L#2 and the six
	// scopes below those do not.
	shared, own := checkActPaths(t, inst)
	if shared != 6 || own != 10 {
		t.Fatalf("nested scopes: %d shared, %d own; want 6 and 10", shared, own)
	}
	if _, ok := inst.ActivityState("L#2/N#0/sub#0/B#0/x"); !ok {
		t.Fatalf("no L#2/N#0/sub#0/B#0/x; have %v", pathsOf(inst))
	}
	records := log.Records()
	for k := 1; k <= len(records); k++ {
		rec, err := Recover(pathsEngine(t), records[:k], nil)
		if err != nil {
			t.Fatalf("recover %d of %d records: %v", k, len(records), err)
		}
		if s, o := checkActPaths(t, rec); s != shared || o != own {
			t.Fatalf("recover %d of %d records: %d shared, %d own", k, len(records), s, o)
		}
	}
}
