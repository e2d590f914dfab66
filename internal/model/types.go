// Package model defines the workflow meta-model of the Workflow Management
// Coalition reference model as implemented by FlowMark and described in
// §3.2 of "Advanced Transaction Models in Workflow Contexts" (Alonso et
// al., ICDE 1996): processes, activities (program, process and block
// activities), control connectors with transition conditions, data
// connectors mapping between typed data containers, start conditions
// (AND/OR joins) and exit conditions.
//
// The model is purely structural; execution semantics live in the engine
// package, and the textual form lives in the fdl package.
package model

import (
	"fmt"

	"repro/internal/expr"
)

// BasicKind enumerates the scalar member types of containers.
type BasicKind uint8

// The basic data types of container members, mirroring FDL.
const (
	Long BasicKind = iota + 1
	Float
	String
	Bool
)

// String returns the FDL name of the kind.
func (k BasicKind) String() string {
	switch k {
	case Long:
		return "LONG"
	case Float:
		return "FLOAT"
	case String:
		return "STRING"
	case Bool:
		return "BOOL"
	default:
		return fmt.Sprintf("BasicKind(%d)", uint8(k))
	}
}

// ValueKind maps a basic kind to the expression value kind used at runtime.
func (k BasicKind) ValueKind() expr.Kind {
	switch k {
	case Long:
		return expr.KindInt
	case Float:
		return expr.KindFloat
	case String:
		return expr.KindString
	case Bool:
		return expr.KindBool
	default:
		return expr.KindNull
	}
}

// Member is a field of a structure type. Exactly one of Basic or Struct is
// set: a member is either scalar or a nested structure (by name, resolved
// against the type registry).
type Member struct {
	Name    string
	Basic   BasicKind  // scalar member kind, or 0 when Struct is set
	Struct  string     // nested structure type name, or ""
	Default expr.Value // default for scalar members; Null means the kind's zero
}

// IsStruct reports whether the member is a nested structure.
func (m *Member) IsStruct() bool { return m.Struct != "" }

// StructType is a named record type used for data containers.
type StructType struct {
	Name    string
	Members []Member
}

// Member returns the member with the given name, or nil.
func (t *StructType) Member(name string) *Member {
	for i := range t.Members {
		if t.Members[i].Name == name {
			return &t.Members[i]
		}
	}
	return nil
}

// Types is a registry of structure types, keyed by name.
//
// A registry is filled at buildtime and read at runtime: a registered
// StructType must not be modified afterwards, and Register must not run
// concurrently with any other use of the registry. Once registration is
// over, any number of goroutines may create containers from it.
type Types struct {
	byName map[string]*StructType
	order  []*StructType
	// layouts holds the container layout of every type whose nested
	// structures are all registered. Register is the only writer.
	layouts map[string]*layout
}

// NewTypes returns an empty type registry with the predefined 'Default'
// structure (a single RC member) already registered. Every activity output
// container must be able to carry the RC return code, so the Default type
// is the canonical minimal container type.
func NewTypes() *Types {
	ts := &Types{byName: make(map[string]*StructType), layouts: make(map[string]*layout)}
	// The predefined default container type: just the return code.
	if err := ts.Register(&StructType{Name: DefaultType}); err != nil {
		panic(err) // unreachable: registry is empty
	}
	return ts
}

// DefaultType is the name of the predefined empty structure type. All
// containers of this type carry only the implicit RC member.
const DefaultType = "Default"

// RCMember is the name of the implicit return-code member present in every
// container. Programs report commit (0) or abort (non-zero) through it.
const RCMember = "RC"

// Register adds a structure type to the registry. It rejects duplicate
// names, empty names, members named RC, duplicate member names and unknown
// or recursively nested structure references (checked lazily in Resolve, and
// eagerly here for direct self reference).
func (ts *Types) Register(t *StructType) error {
	if t.Name == "" {
		return fmt.Errorf("model: structure with empty name")
	}
	if _, dup := ts.byName[t.Name]; dup {
		return fmt.Errorf("model: duplicate structure %q", t.Name)
	}
	seen := make(map[string]bool, len(t.Members))
	for i := range t.Members {
		m := &t.Members[i]
		if m.Name == "" {
			return fmt.Errorf("model: structure %q has a member with empty name", t.Name)
		}
		if m.Name == RCMember {
			return fmt.Errorf("model: structure %q declares reserved member %q", t.Name, RCMember)
		}
		if seen[m.Name] {
			return fmt.Errorf("model: structure %q has duplicate member %q", t.Name, m.Name)
		}
		seen[m.Name] = true
		if m.IsStruct() == (m.Basic != 0) {
			return fmt.Errorf("model: structure %q member %q must be either scalar or structure", t.Name, m.Name)
		}
		if m.IsStruct() && m.Struct == t.Name {
			return fmt.Errorf("model: structure %q directly contains itself", t.Name)
		}
		if !m.IsStruct() && !m.Default.IsNull() && m.Default.Kind() != m.Basic.ValueKind() {
			return fmt.Errorf("model: structure %q member %q default %s does not match type %s",
				t.Name, m.Name, m.Default, m.Basic)
		}
	}
	ts.byName[t.Name] = t
	ts.order = append(ts.order, t)
	// The new type may be the one an earlier type was waiting for. A layout
	// that exists is final: names cannot be registered twice, so nothing it
	// was built from can change.
	for _, pending := range ts.order {
		if _, done := ts.layouts[pending.Name]; done {
			continue
		}
		if lay, err := ts.buildLayout(pending); err == nil {
			ts.layouts[pending.Name] = lay
		}
	}
	return nil
}

// Lookup returns the structure type with the given name.
func (ts *Types) Lookup(name string) (*StructType, bool) {
	t, ok := ts.byName[name]
	return t, ok
}

// All returns the registered types in registration order, excluding the
// predefined Default type.
func (ts *Types) All() []*StructType {
	out := make([]*StructType, 0, len(ts.order))
	for _, t := range ts.order {
		if t.Name != DefaultType {
			out = append(out, t)
		}
	}
	return out
}

// CheckCycles verifies that no structure contains itself through any chain
// of nested members and that all referenced structures exist.
func (ts *Types) CheckCycles() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int, len(ts.byName))
	var visit func(name string) error
	visit = func(name string) error {
		t, ok := ts.byName[name]
		if !ok {
			return fmt.Errorf("model: unknown structure %q", name)
		}
		switch color[name] {
		case grey:
			return fmt.Errorf("model: structure cycle through %q", name)
		case black:
			return nil
		}
		color[name] = grey
		for i := range t.Members {
			if t.Members[i].IsStruct() {
				if err := visit(t.Members[i].Struct); err != nil {
					return err
				}
			}
		}
		color[name] = black
		return nil
	}
	for _, t := range ts.order {
		if err := visit(t.Name); err != nil {
			return err
		}
	}
	return nil
}

// ResolvePath walks a dotted member path from a root structure type and
// returns the scalar kind at the end of the path. Paths must terminate at a
// scalar member; the implicit RC member resolves as Long at the top level.
func (ts *Types) ResolvePath(root string, path []string) (BasicKind, error) {
	if len(path) == 0 {
		return 0, fmt.Errorf("model: empty member path")
	}
	if len(path) == 1 && path[0] == RCMember {
		return Long, nil
	}
	cur, ok := ts.byName[root]
	if !ok {
		return 0, fmt.Errorf("model: unknown structure %q", root)
	}
	for i, seg := range path {
		m := cur.Member(seg)
		if m == nil {
			return 0, fmt.Errorf("model: structure %q has no member %q", cur.Name, seg)
		}
		if m.IsStruct() {
			next, ok := ts.byName[m.Struct]
			if !ok {
				return 0, fmt.Errorf("model: unknown structure %q", m.Struct)
			}
			cur = next
			continue
		}
		if i != len(path)-1 {
			return 0, fmt.Errorf("model: member %q of %q is scalar but path continues", seg, cur.Name)
		}
		return m.Basic, nil
	}
	return 0, fmt.Errorf("model: path %v ends at structure %q, not a scalar", path, cur.Name)
}
