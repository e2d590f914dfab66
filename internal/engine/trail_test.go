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
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: the garbage collector scans every trail that holds one", path, typ.Kind())
		}
	}
	check("trailRec", reflect.TypeOf(trailRec{}))
}

// TestTrailRecSize pins the trail record at 24 bytes: its stamp lives in
// the instance's stamp runs, and a connector's target slot shares the
// iteration field, which no connector event reads.
func TestTrailRecSize(t *testing.T) {
	if size := unsafe.Sizeof(trailRec{}); size > 24 {
		t.Fatalf("trailRec is %d bytes, want <= 24", size)
	}
}
