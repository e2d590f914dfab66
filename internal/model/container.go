package model

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/expr"
)

// layout is the buildtime half of a container: everything about the
// containers of one structure type that does not change from instance to
// instance. Nested structure members are flattened to dotted paths; the
// implicit RC member is one more path. Slot i of every container of the
// type holds the member at paths[i]. A layout is built once, when the
// registry can first resolve the type, and is shared read-only by all its
// containers.
type layout struct {
	typ      *StructType
	paths    []string       // sorted, RC included
	slot     map[string]int // dotted path -> index into paths
	defaults []expr.Value   // by slot
	rc       int            // slot of the RC member
	// frozen marks the read-only twin of a layout, and twin links the two:
	// a read-only container points at the frozen twin, so the guard costs a
	// container no field of its own.
	frozen bool
	twin   *layout
}

// buildLayout flattens a structure type against the registry. It fails
// when a nested structure is not registered (yet) or contains itself.
func (ts *Types) buildLayout(t *StructType) (*layout, error) {
	defaults := map[string]expr.Value{RCMember: expr.Int(0)}
	var open []string // the nesting being flattened, to stop at a cycle
	var flatten func(t *StructType, prefix string) error
	flatten = func(t *StructType, prefix string) error {
		for _, name := range open {
			if name == t.Name {
				return fmt.Errorf("model: structure cycle through %q", t.Name)
			}
		}
		open = append(open, t.Name)
		for i := range t.Members {
			m := &t.Members[i]
			path := prefix + m.Name
			if m.IsStruct() {
				nested, ok := ts.byName[m.Struct]
				if !ok {
					return fmt.Errorf("model: unknown structure %q", m.Struct)
				}
				if err := flatten(nested, path+"."); err != nil {
					return err
				}
				continue
			}
			def := m.Default
			if def.IsNull() {
				def = expr.ZeroOf(m.Basic.ValueKind())
			}
			defaults[path] = def
		}
		open = open[:len(open)-1]
		return nil
	}
	if err := flatten(t, ""); err != nil {
		return nil, err
	}
	lay := &layout{
		typ:      t,
		paths:    make([]string, 0, len(defaults)),
		slot:     make(map[string]int, len(defaults)),
		defaults: make([]expr.Value, len(defaults)),
	}
	for path := range defaults {
		lay.paths = append(lay.paths, path)
	}
	sort.Strings(lay.paths)
	for i, path := range lay.paths {
		lay.slot[path] = i
		lay.defaults[i] = defaults[path]
	}
	lay.rc = lay.slot[RCMember]
	ro := *lay
	ro.frozen, ro.twin = true, lay
	lay.twin = &ro
	return lay, nil
}

// Container is a run-time instance of a structure type: the input or output
// data container of an activity, block or process. Nested structure members
// are flattened to dotted paths internally. Every container additionally
// carries the implicit RC member (a Long, default 0).
//
// Containers implement expr.Env so conditions evaluate directly against
// them. A Container is not safe for concurrent mutation; the engine
// serializes access. A frozen container (Freeze) is read-only and may be
// shared by any number of goroutines.
type Container struct {
	lay    *layout
	values []expr.Value // by layout slot, fully populated with defaults
}

// NewContainer builds a container of the named type with every member set
// to its default value and RC set to 0.
func (ts *Types) NewContainer(typeName string) (*Container, error) {
	lay, ok := ts.layouts[typeName]
	if !ok {
		t, ok := ts.Lookup(typeName)
		if !ok {
			return nil, fmt.Errorf("model: unknown structure %q", typeName)
		}
		_, err := ts.buildLayout(t) // says which nested structure is missing
		return nil, err
	}
	return &Container{lay: lay, values: append([]expr.Value(nil), lay.defaults...)}, nil
}

// ErrReadOnly is the error of a write through a frozen container.
var ErrReadOnly = errors.New("container is read-only")

// Freeze makes the container read-only for good: Set, CopyFrom and Restore
// return ErrReadOnly and SetRC panics with it, so a container shared by
// many readers — a template's defaults — never changes under them. Clone
// still returns a writable copy. Freezing a frozen container writes
// nothing, so goroutines sharing one may.
func (c *Container) Freeze() {
	if !c.lay.frozen {
		c.lay = c.lay.twin
	}
}

// Frozen reports whether the container is read-only (Freeze).
func (c *Container) Frozen() bool { return c.lay.frozen }

// readOnlyError is the error of a write to the member at path.
func (c *Container) readOnlyError(path string) error {
	return fmt.Errorf("model: member %q of %q: %w", path, c.lay.typ.Name, ErrReadOnly)
}

// Type returns the container's structure type.
func (c *Container) Type() *StructType { return c.lay.typ }

// Lookup implements expr.Env over the container's members.
func (c *Container) Lookup(path []string) (expr.Value, bool) {
	return c.Get(joinPath(path))
}

// Get returns the value at a dotted path such as "order.total" or "RC".
func (c *Container) Get(path string) (expr.Value, bool) {
	i, ok := c.lay.slot[path]
	if !ok {
		return expr.Null, false
	}
	return c.values[i], true
}

// MustGet is Get that panics when the member does not exist.
func (c *Container) MustGet(path string) expr.Value {
	v, ok := c.Get(path)
	if !ok {
		panic(fmt.Sprintf("model: container %q has no member %q", c.lay.typ.Name, path))
	}
	return v
}

// RC returns the container's return code member.
func (c *Container) RC() int64 { return c.values[c.lay.rc].AsInt() }

// SetRC sets the return code member. It panics on a frozen container.
func (c *Container) SetRC(rc int64) {
	if c.lay.frozen {
		panic(c.readOnlyError(RCMember))
	}
	c.values[c.lay.rc] = expr.Int(rc)
}

// Set assigns a member at a dotted path. The member must exist and the
// value's kind must match the member's declared kind (ints are accepted for
// float members and widened). The container must not be frozen.
func (c *Container) Set(path string, v expr.Value) error {
	i, ok := c.lay.slot[path]
	if !ok {
		return fmt.Errorf("model: container %q has no member %q", c.lay.typ.Name, path)
	}
	if c.lay.frozen {
		return c.readOnlyError(path)
	}
	coerced, err := coerce(v, c.values[i].Kind())
	if err != nil {
		return fmt.Errorf("model: member %q of %q: %v", path, c.lay.typ.Name, err)
	}
	c.values[i] = coerced
	return nil
}

// MustSet is Set that panics on error, for programs writing their declared
// outputs.
func (c *Container) MustSet(path string, v expr.Value) {
	if err := c.Set(path, v); err != nil {
		panic(err)
	}
}

func coerce(v expr.Value, want expr.Kind) (expr.Value, error) {
	if v.Kind() == want {
		return v, nil
	}
	if v.Kind() == expr.KindInt && want == expr.KindFloat {
		return expr.Float(v.AsFloat()), nil
	}
	return expr.Null, fmt.Errorf("cannot assign %s to %s member", v.Kind(), want)
}

// CopyFrom copies the member at fromPath in src into toPath in c. Kinds
// must be assignment-compatible.
func (c *Container) CopyFrom(src *Container, fromPath, toPath string) error {
	v, ok := src.Get(fromPath)
	if !ok {
		return fmt.Errorf("model: source container %q has no member %q", src.lay.typ.Name, fromPath)
	}
	return c.Set(toPath, v)
}

// Clone returns a writable deep copy of the container, frozen or not. A
// container of up to four slots — every container of the reference models —
// is one allocation: the header and its slots share an object of the size
// the two took apart.
func (c *Container) Clone() *Container {
	lay := c.lay
	if lay.frozen {
		lay = lay.twin
	}
	var out *Container
	var vals []expr.Value
	switch len(c.values) {
	case 1:
		p := new(withSlots[[1]expr.Value])
		out, vals = &p.c, p.v[:]
	case 2:
		p := new(withSlots[[2]expr.Value])
		out, vals = &p.c, p.v[:]
	case 3:
		p := new(withSlots[[3]expr.Value])
		out, vals = &p.c, p.v[:]
	case 4:
		p := new(withSlots[[4]expr.Value])
		out, vals = &p.c, p.v[:]
	default:
		return &Container{lay: lay, values: append([]expr.Value(nil), c.values...)}
	}
	copy(vals, c.values)
	*out = Container{lay: lay, values: vals}
	return out
}

// withSlots is a container allocated together with its slot array.
type withSlots[A any] struct {
	c Container
	v A
}

// Paths returns the container's member paths in sorted order (including
// RC), useful for serialization and debugging.
func (c *Container) Paths() []string {
	return append([]string(nil), c.lay.paths...)
}

// String renders the container as "Type{a=1, b="x"}" with sorted members.
func (c *Container) String() string {
	var sb strings.Builder
	sb.WriteString(c.lay.typ.Name)
	sb.WriteByte('{')
	for i, p := range c.lay.paths {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p)
		sb.WriteByte('=')
		sb.WriteString(c.values[i].String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// Snapshot returns the container's members as a path→value map (a copy),
// for instance snapshots and tools; the WAL takes Vector.
func (c *Container) Snapshot() map[string]expr.Value {
	vals := make(map[string]expr.Value, len(c.values))
	for i, p := range c.lay.paths {
		vals[p] = c.values[i]
	}
	return vals
}

// Vector returns what a WAL record carries: the layout's sorted paths, RC
// included — one slice shared by every container of the type — and,
// index-aligned, the container's own slots. Neither is a copy: callers must
// not write through them, and a record made from them holds the values the
// container holds, so the engine writes no container once its record is
// queued (DESIGN.md §8).
func (c *Container) Vector() (paths []string, vals []expr.Value) {
	return c.lay.paths, c.values
}

// Restore is the inverse of Vector: member paths[i] becomes vals[i]. When
// paths are the layout's own, values of the member's kind go slot for slot;
// anything else goes by name through Set, which rejects an unknown path and
// coerces kinds. RC is restored as logged. The container must not be frozen.
func (c *Container) Restore(paths []string, vals []expr.Value) error {
	if c.lay.frozen {
		return fmt.Errorf("model: restoring %q: %w", c.lay.typ.Name, ErrReadOnly)
	}
	aligned := slices.Equal(paths, c.lay.paths)
	for i, v := range vals {
		switch {
		case paths[i] == RCMember:
			c.values[c.lay.rc] = v
		case aligned && v.Kind() == c.values[i].Kind():
			c.values[i] = v
		default:
			if err := c.Set(paths[i], v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Equal reports whether two containers have the same type name and member
// values.
func (c *Container) Equal(o *Container) bool {
	if c.lay.typ.Name != o.lay.typ.Name || len(c.values) != len(o.values) {
		return false
	}
	for i, v := range c.values {
		// By path: same-named types of two registries have layouts of their own.
		ov, ok := o.Get(c.lay.paths[i])
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

func joinPath(path []string) string { return strings.Join(path, ".") }
