package engine

import (
	"reflect"
	"testing"
	"unsafe"
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

// TestTrailRecSize pins the trail record at 24 bytes: its stamp lives in
// the instance's stamp runs, and a connector's target slot shares the
// iteration field, which no connector event reads.
func TestTrailRecSize(t *testing.T) {
	if size := unsafe.Sizeof(trailRec{}); size > 24 {
		t.Fatalf("trailRec is %d bytes, want <= 24", size)
	}
}

// TestActStateSize pins an activity's run-time state at 32 bytes (88 while
// it held its plan, scope, path, output, work item and program time).
func TestActStateSize(t *testing.T) {
	if size := unsafe.Sizeof(actState{}); size > 32 {
		t.Fatalf("actState is %d bytes, want <= 32", size)
	}
}
