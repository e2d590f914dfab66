package engine

import (
	"reflect"
	"testing"
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
