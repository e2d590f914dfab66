package model

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/expr"
)

// TestLayoutSurvivesLaterRegistration pins the rule that a layout, once
// built, is final: registering further types — unrelated ones, ones that
// nest the existing type, the one an earlier type was waiting for — leaves
// existing containers and the containers created afterwards unchanged.
func TestLayoutSurvivesLaterRegistration(t *testing.T) {
	ts := newTestTypes(t)
	order := mustContainer(ts, "Order")
	order.MustSet("id", expr.Int(7))
	order.MustSet("total.amount", expr.Float(12.5))
	before, pathsBefore := order.String(), order.Paths()

	// A type that refers to a structure nobody has registered yet.
	if err := ts.Register(&StructType{Name: "Invoice", Members: []Member{
		{Name: "order", Struct: "Order"},
		{Name: "ship", Struct: "Address"},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.NewContainer("Invoice"); err == nil || !strings.Contains(err.Error(), `"Address"`) {
		t.Fatalf("NewContainer(Invoice) before Address exists = %v, want unknown structure", err)
	}
	if err := ts.Register(&StructType{Name: "Address", Members: []Member{
		{Name: "city", Basic: String, Default: expr.String_("Zurich")},
	}}); err != nil {
		t.Fatal(err)
	}
	inv, err := ts.NewContainer("Invoice")
	if err != nil {
		t.Fatalf("NewContainer(Invoice) once Address exists: %v", err)
	}
	want := []string{"RC", "order.id", "order.paid", "order.total.amount", "order.total.currency", "ship.city"}
	if got := inv.Paths(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Invoice paths = %v, want %v", got, want)
	}

	if got := order.String(); got != before {
		t.Errorf("existing container changed: %s, was %s", got, before)
	}
	if got := order.Paths(); !reflect.DeepEqual(got, pathsBefore) {
		t.Errorf("existing container's paths changed: %v, were %v", got, pathsBefore)
	}
	fresh := mustContainer(ts, "Order")
	if got := fresh.String(); got != `Order{RC=0, id=0, paid=FALSE, total.amount=0.0, total.currency="USD"}` {
		t.Errorf("fresh Order after later registrations = %s", got)
	}
	if !fresh.Equal(mustContainer(ts, "Order")) || fresh.Equal(order) {
		t.Error("fresh Order containers must equal each other and not the modified one")
	}
}

// TestLayoutRejectsCycle: a structure that contains itself through another
// never gets a layout; asking for a container is an error, not a runaway
// recursion.
func TestLayoutRejectsCycle(t *testing.T) {
	ts := NewTypes()
	for _, st := range []*StructType{
		{Name: "A", Members: []Member{{Name: "b", Struct: "B"}}},
		{Name: "B", Members: []Member{{Name: "a", Struct: "A"}}},
	} {
		if err := ts.Register(st); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ts.NewContainer("A"); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("NewContainer of a cyclic structure = %v, want a cycle error", err)
	}
}

// TestLayoutSharedAcrossGoroutines creates and fills containers of the same
// types from many goroutines at once (run under -race): the layout they
// share is only ever read.
func TestLayoutSharedAcrossGoroutines(t *testing.T) {
	ts := newTestTypes(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := mustContainer(ts, "Order")
				c.MustSet("id", expr.Int(int64(g)))
				c.MustSet("total.amount", expr.Int(int64(i)))
				d := c.Clone()
				if !d.Equal(c) || d.MustGet("id").AsInt() != int64(g) || len(d.Snapshot()) != len(d.Paths()) {
					t.Errorf("goroutine %d: container %s", g, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// refContainer is the container the slot-backed one replaced: a map from
// dotted path to value, filled by walking the structure type. The property
// test below holds Container to it.
type refContainer struct {
	name string
	vals map[string]expr.Value
}

func newRef(ts *Types, name string) *refContainer {
	r := &refContainer{name: name, vals: map[string]expr.Value{RCMember: expr.Int(0)}}
	var walk func(t *StructType, prefix string)
	walk = func(t *StructType, prefix string) {
		for i := range t.Members {
			m := &t.Members[i]
			if m.IsStruct() {
				nested, _ := ts.Lookup(m.Struct)
				walk(nested, prefix+m.Name+".")
				continue
			}
			def := m.Default
			if def.IsNull() {
				def = expr.ZeroOf(m.Basic.ValueKind())
			}
			r.vals[prefix+m.Name] = def
		}
	}
	t, _ := ts.Lookup(name)
	walk(t, "")
	return r
}

func (r *refContainer) paths() []string {
	out := make([]string, 0, len(r.vals))
	for k := range r.vals {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (r *refContainer) String() string {
	parts := make([]string, 0, len(r.vals))
	for _, p := range r.paths() {
		parts = append(parts, p+"="+r.vals[p].String())
	}
	return r.name + "{" + strings.Join(parts, ", ") + "}"
}

// randomTypes registers n structure types; each may nest the ones before
// it, so nesting goes several levels deep without a cycle.
func randomTypes(rng *rand.Rand, n int) (*Types, []string) {
	ts := NewTypes()
	names := []string{DefaultType}
	kinds := []BasicKind{Long, Float, String, Bool}
	for i := 0; i < n; i++ {
		st := &StructType{Name: fmt.Sprintf("T%d", i)}
		for j, members := 0, 1+rng.Intn(5); j < members; j++ {
			m := Member{Name: fmt.Sprintf("m%d", j)}
			if i > 0 && rng.Intn(3) == 0 {
				m.Struct = fmt.Sprintf("T%d", rng.Intn(i))
			} else {
				m.Basic = kinds[rng.Intn(len(kinds))]
				if rng.Intn(2) == 0 {
					m.Default = randomValue(rng, m.Basic.ValueKind())
				}
			}
			st.Members = append(st.Members, m)
		}
		if err := ts.Register(st); err != nil {
			panic(err)
		}
		names = append(names, st.Name)
	}
	return ts, names
}

func randomValue(rng *rand.Rand, k expr.Kind) expr.Value {
	switch k {
	case expr.KindInt:
		return expr.Int(rng.Int63n(1000) - 500)
	case expr.KindFloat:
		return expr.Float(float64(rng.Intn(1000)) / 8)
	case expr.KindString:
		return expr.String_(fmt.Sprintf("s%d", rng.Intn(100)))
	default:
		return expr.Bool(rng.Intn(2) == 0)
	}
}

// TestContainerMatchesMapReference drives random nested types through
// Set, Snapshot→Restore, Clone, Equal, Paths and String and requires the
// slot-backed container to agree with the path→value map it replaced.
func TestContainerMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts, names := randomTypes(rng, 6)
		for _, name := range names {
			c, ref := mustContainer(ts, name), newRef(ts, name)
			for _, p := range ref.paths() {
				if rng.Intn(2) == 0 {
					continue
				}
				v := randomValue(rng, ref.vals[p].Kind())
				if err := c.Set(p, v); err != nil {
					t.Fatalf("seed %d %s: Set(%s): %v", seed, name, p, err)
				}
				ref.vals[p] = v
			}
			if got, want := c.Paths(), ref.paths(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: Paths = %v, want %v", seed, name, got, want)
			}
			if got, want := c.String(), ref.String(); got != want {
				t.Fatalf("seed %d %s: String = %s, want %s", seed, name, got, want)
			}
			snap := c.Snapshot()
			if !reflect.DeepEqual(snap, ref.vals) {
				t.Fatalf("seed %d %s: Snapshot = %v, want %v", seed, name, snap, ref.vals)
			}
			restored := mustContainer(ts, name)
			if err := restored.Restore(c.Vector()); err != nil {
				t.Fatalf("seed %d %s: Restore: %v", seed, name, err)
			}
			clone := c.Clone()
			if !restored.Equal(c) || !clone.Equal(c) || restored.String() != ref.String() {
				t.Fatalf("seed %d %s: restored %s, clone %s, want %s", seed, name, restored, clone, ref)
			}
			// A clone is its own container, and one changed member is enough
			// to tell two containers apart.
			p := ref.paths()[rng.Intn(len(ref.vals))]
			old := ref.vals[p]
			changed := expr.Int(old.AsInt() + 1)
			switch old.Kind() {
			case expr.KindFloat:
				changed = expr.Float(old.AsFloat() + 1)
			case expr.KindString:
				changed = expr.String_(old.AsString() + "'")
			case expr.KindBool:
				changed = expr.Bool(!old.AsBool())
			}
			clone.MustSet(p, changed)
			if clone.Equal(c) || c.String() != ref.String() {
				t.Fatalf("seed %d %s: changing %s of the clone: clone %s, original %s", seed, name, p, clone, c)
			}
		}
	}
}

// TestContainerEqualAcrossRegistries: Equal compares by type name and
// member values, so same-named types of two registries compare by path.
func TestContainerEqualAcrossRegistries(t *testing.T) {
	a, b := mustContainer(newTestTypes(t), "Order"), mustContainer(newTestTypes(t), "Order")
	if !a.Equal(b) {
		t.Fatal("equal containers of two registries differ")
	}
	b.MustSet("total.currency", expr.String_("CHF"))
	if a.Equal(b) {
		t.Fatal("different containers of two registries equal")
	}
}

// restoreByName is what Restore did while records carried maps: every
// member through Set, by name, except RC, which is taken as logged.
func restoreByName(c *Container, paths []string, vals []expr.Value) error {
	for i, p := range paths {
		if p == RCMember {
			c.values[c.lay.rc] = vals[i]
			continue
		}
		if err := c.Set(p, vals[i]); err != nil {
			return err
		}
	}
	return nil
}

// TestRestoreVectorMatchesByName: the slot-for-slot path of Restore (the
// record's keys are the layout's paths) and its by-name path (any other
// list: a subset, shuffled, a member repeated, a stranger among them)
// leave the container restoreByName leaves and fail when it fails, over
// random nested types with every slot drawn at random — the right kind, an
// integer for a FLOAT member (widened), or a wrong kind (rejected; for RC,
// restored as logged).
func TestRestoreVectorMatchesByName(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts, names := randomTypes(rng, 4)
		name := names[rng.Intn(len(names))]
		src := mustContainer(ts, name)
		paths, vals := src.Vector()
		vals = slices.Clone(vals) // Vector hands out the container's own slots
		for i := range vals {
			switch rng.Intn(6) {
			case 0:
				vals[i] = expr.Int(int64(rng.Intn(9))) // widens into FLOAT, fits LONG
			case 1:
				vals[i] = randomValue(rng, []expr.Kind{expr.KindInt, expr.KindFloat, expr.KindString, expr.KindBool}[rng.Intn(4)])
			default:
				vals[i] = randomValue(rng, vals[i].Kind())
			}
		}
		if rng.Intn(2) == 0 {
			// Off the layout: drop, shuffle, repeat, and now and then add a
			// member the type does not have.
			paths = append([]string(nil), paths...)
			rng.Shuffle(len(paths), func(i, j int) {
				paths[i], paths[j] = paths[j], paths[i]
				vals[i], vals[j] = vals[j], vals[i]
			})
			keep := 1 + rng.Intn(len(paths))
			paths, vals = paths[:keep], vals[:keep]
			if rng.Intn(2) == 0 {
				at := rng.Intn(len(paths))
				paths, vals = append(paths, paths[at]), append(vals, randomValue(rng, vals[at].Kind()))
			}
			if rng.Intn(4) == 0 {
				paths, vals = append(paths, "stranger"), append(vals, expr.Int(1))
			}
		}
		got, want := mustContainer(ts, name), mustContainer(ts, name)
		gotErr, wantErr := got.Restore(paths, vals), restoreByName(want, paths, vals)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("seed %d %s: Restore(%v, %v): %v, by name: %v", seed, name, paths, vals, gotErr, wantErr)
		}
		// After an error both stopped at the same member, in the same order.
		if !reflect.DeepEqual(got.values, want.values) {
			t.Fatalf("seed %d %s: Restore(%v, %v) = %s, by name %s", seed, name, paths, vals, got, want)
		}
	}
}

// TestFrozenContainerRefusesWrites: a frozen container — a template's
// defaults, an activity's input — refuses every write (Set, CopyFrom and
// Restore return ErrReadOnly, SetRC and MustSet panic with it) and keeps
// its values, while Clone hands out a writable copy and leaves the
// original frozen. The guard lives in the layout, so a container stays
// 32 bytes and a clone of up to four slots keeps its size class.
func TestFrozenContainerRefusesWrites(t *testing.T) {
	ts := NewTypes()
	if err := ts.Register(&StructType{Name: "IO", Members: []Member{{Name: "x", Basic: Long, Default: expr.Int(5)}}}); err != nil {
		t.Fatal(err)
	}
	c := mustContainer(ts, "IO")
	src := c.Clone()
	c.Freeze()
	if !c.Frozen() || src.Frozen() {
		t.Fatalf("Frozen() = %v after Freeze, %v on a clone taken before", c.Frozen(), src.Frozen())
	}
	refused := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, ErrReadOnly) {
			t.Errorf("%s on a frozen container: %v, want ErrReadOnly", name, err)
		}
	}
	panics := func(name string, write func()) {
		t.Helper()
		defer func() {
			err, _ := recover().(error)
			refused(name, err)
		}()
		write()
	}
	refused("Set", c.Set("x", expr.Int(9)))
	refused("CopyFrom", c.CopyFrom(src, "x", "x"))
	refused("Restore", c.Restore(src.Vector()))
	panics("SetRC", func() { c.SetRC(7) })
	panics("MustSet", func() { c.MustSet("x", expr.Int(9)) })
	if !c.MustGet("x").Equal(expr.Int(5)) || c.RC() != 0 {
		t.Fatalf("frozen container changed: %s", c)
	}
	w := c.Clone()
	if w.Frozen() || !w.Equal(c) {
		t.Fatalf("Clone of a frozen container: frozen %v, %s vs %s", w.Frozen(), w, c)
	}
	w.SetRC(3)
	if err := w.Set("x", expr.Int(9)); err != nil {
		t.Fatal(err)
	}
	if !c.Frozen() || !c.MustGet("x").Equal(expr.Int(5)) || c.RC() != 0 {
		t.Fatalf("writing the clone changed the frozen original: %s", c)
	}
	c.Freeze() // freezing twice is freezing once
	if !c.Frozen() || c.Clone().Frozen() {
		t.Fatal("a second Freeze changed what Frozen or Clone report")
	}
	if size := unsafe.Sizeof(Container{}); size != 32 {
		t.Fatalf("Container is %d bytes, want 32", size)
	}
}
