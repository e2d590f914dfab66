package engine

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
)

// TestTrailRecHoldsNoPointer pins the stored form of the audit trail as
// memory the garbage collector allocates but never scans: a trailRec names
// its activity by scope index and slot, and no field of it — nested ones
// included — may hold a pointer, string, slice, map, interface, channel or
// function.
func TestTrailRecHoldsNoPointer(t *testing.T) {
	holdsNoPointer(t, "trailRec", reflect.TypeOf(trailRec{}))
}

// TestActStateHoldsNoPointer does the same for a scope's activity states:
// an actState reaches its scope and plan through its scope index and slot,
// its path through the scope's joined paths, its output through the
// scope's outputs and its work item through the instance, so the slab of
// every scope a finished instance keeps is never scanned.
func TestActStateHoldsNoPointer(t *testing.T) {
	holdsNoPointer(t, "actState", reflect.TypeOf(actState{}))
}

// holdsNoPointer fails the test for every field of typ, nested ones
// included, that holds a pointer, string, slice, map, interface, channel
// or function.
func holdsNoPointer(t *testing.T, path string, typ reflect.Type) {
	t.Helper()
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			holdsNoPointer(t, path+"."+f.Name, f.Type)
		}
	case reflect.Array:
		holdsNoPointer(t, path+"[]", typ.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.Chan, reflect.Func:
		t.Errorf("%s is a %s: the garbage collector scans every object that holds one", path, typ.Kind())
	}
}

// TestProgramAdvancesClock: a program's run time shows on the trail — its
// start is stamped before the program runs, its finish after it returns.
func TestProgramAdvancesClock(t *testing.T) {
	now := int64(100)
	e := New(WithMetrics(obs.NewRegistry()), WithBus(obs.NewBus()), WithClock(func() int64 { return now }))
	if err := e.RegisterProgram("slow", ProgramFunc(func(inv *Invocation) error {
		now += 7
		inv.Out.SetRC(0)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	p := model.NewProcess("Slow")
	p.Activities = []*model.Activity{{Name: "S", Kind: model.KindProgram, Program: "slow"}}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("Slow", nil, nil)
	if err == nil {
		err = inst.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	at := map[EventKind]int64{}
	for _, ev := range inst.Trail() {
		if ev.Path == "S" {
			at[ev.Kind] = ev.At
		}
	}
	if at[EvStarted] != 100 || at[EvFinished] != 107 {
		t.Fatalf("started at %d, finished at %d; want 100 and 107", at[EvStarted], at[EvFinished])
	}
}
