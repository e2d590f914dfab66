package model

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/expr"
)

// mustContainer is NewContainer for a type the test registered.
func mustContainer(ts *Types, name string) *Container {
	c, err := ts.NewContainer(name)
	if err != nil {
		panic(err)
	}
	return c
}

func newTestTypes(t *testing.T) *Types {
	t.Helper()
	ts := NewTypes()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ts.Register(&StructType{Name: "Money", Members: []Member{
		{Name: "amount", Basic: Float},
		{Name: "currency", Basic: String, Default: expr.String_("USD")},
	}}))
	must(ts.Register(&StructType{Name: "Order", Members: []Member{
		{Name: "id", Basic: Long},
		{Name: "total", Struct: "Money"},
		{Name: "paid", Basic: Bool},
	}}))
	must(ts.Register(&StructType{Name: "SagaState", Members: []Member{
		{Name: "State_1", Basic: Long, Default: expr.Int(-1)},
		{Name: "State_2", Basic: Long, Default: expr.Int(-1)},
	}}))
	return ts
}

func TestTypeRegistry(t *testing.T) {
	ts := newTestTypes(t)
	if _, ok := ts.Lookup("Order"); !ok {
		t.Fatal("Order not registered")
	}
	if _, ok := ts.Lookup(DefaultType); !ok {
		t.Fatal("Default type missing")
	}
	if got := len(ts.All()); got != 3 {
		t.Fatalf("All() = %d types, want 3 (Default excluded)", got)
	}
	if err := ts.CheckCycles(); err != nil {
		t.Fatalf("CheckCycles: %v", err)
	}
}

func TestTypeRegistryErrors(t *testing.T) {
	ts := NewTypes()
	cases := []*StructType{
		{Name: ""},
		{Name: DefaultType}, // duplicate
		{Name: "X", Members: []Member{{Name: ""}}},
		{Name: "X", Members: []Member{{Name: "RC", Basic: Long}}},
		{Name: "X", Members: []Member{{Name: "a", Basic: Long}, {Name: "a", Basic: Long}}},
		{Name: "X", Members: []Member{{Name: "a"}}},                                          // neither basic nor struct
		{Name: "X", Members: []Member{{Name: "a", Basic: Long, Struct: "Y"}}},                // both
		{Name: "X", Members: []Member{{Name: "a", Struct: "X"}}},                             // self
		{Name: "X", Members: []Member{{Name: "a", Basic: Long, Default: expr.String_("x")}}}, // bad default
	}
	for i, st := range cases {
		if err := ts.Register(st); err == nil {
			t.Errorf("case %d: Register(%v) succeeded, want error", i, st.Name)
		}
	}
}

func TestTypeCycleDetection(t *testing.T) {
	ts := NewTypes()
	if err := ts.Register(&StructType{Name: "A", Members: []Member{{Name: "b", Struct: "B"}}}); err != nil {
		t.Fatal(err)
	}
	if err := ts.Register(&StructType{Name: "B", Members: []Member{{Name: "a", Struct: "A"}}}); err != nil {
		t.Fatal(err)
	}
	if err := ts.CheckCycles(); err == nil {
		t.Fatal("cycle not detected")
	}
	ts2 := NewTypes()
	if err := ts2.Register(&StructType{Name: "A", Members: []Member{{Name: "b", Struct: "Missing"}}}); err != nil {
		t.Fatal(err)
	}
	if err := ts2.CheckCycles(); err == nil {
		t.Fatal("dangling struct ref not detected")
	}
}

func TestResolvePath(t *testing.T) {
	ts := newTestTypes(t)
	cases := []struct {
		root, path string
		want       BasicKind
		ok         bool
	}{
		{"Order", "id", Long, true},
		{"Order", "total.amount", Float, true},
		{"Order", "total.currency", String, true},
		{"Order", "paid", Bool, true},
		{"Order", "RC", Long, true}, // implicit
		{"Order", "missing", 0, false},
		{"Order", "total", 0, false},          // ends at struct
		{"Order", "id.x", 0, false},           // continues past scalar
		{"Order", "total.amount.x", 0, false}, // continues past scalar
		{"Missing", "id", 0, false},
		{DefaultType, "RC", Long, true},
	}
	for _, c := range cases {
		got, err := ts.ResolvePath(c.root, strings.Split(c.path, "."))
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ResolvePath(%s, %s) = %v, %v; want %v", c.root, c.path, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ResolvePath(%s, %s) succeeded, want error", c.root, c.path)
		}
	}
	if _, err := ts.ResolvePath("Order", nil); err == nil {
		t.Error("empty path accepted")
	}
}

func TestContainerBasics(t *testing.T) {
	ts := newTestTypes(t)
	c := mustContainer(ts, "Order")
	// Defaults.
	if v := c.MustGet("id"); v.AsInt() != 0 {
		t.Errorf("id default = %v", v)
	}
	if v := c.MustGet("total.currency"); v.AsString() != "USD" {
		t.Errorf("currency default = %v", v)
	}
	if c.RC() != 0 {
		t.Errorf("RC default = %d", c.RC())
	}
	// Set / Get.
	if err := c.Set("id", expr.Int(42)); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("total.amount", expr.Int(7)); err != nil { // int->float widening
		t.Fatal(err)
	}
	if v := c.MustGet("total.amount"); v.Kind() != expr.KindFloat || v.AsFloat() != 7 {
		t.Errorf("total.amount = %v", v)
	}
	if err := c.Set("id", expr.String_("x")); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := c.Set("missing", expr.Int(1)); err == nil {
		t.Error("unknown member accepted")
	}
	c.SetRC(12)
	if c.RC() != 12 {
		t.Error("SetRC failed")
	}
	// Conditions evaluate against containers.
	ok, err := expr.EvalBool(expr.MustParse("total.currency = \"USD\" AND RC = 12"), c)
	if err != nil || !ok {
		t.Errorf("container as env: %v %v", ok, err)
	}
}

func TestContainerCloneAndEqual(t *testing.T) {
	ts := newTestTypes(t)
	a := mustContainer(ts, "Order")
	a.MustSet("id", expr.Int(1))
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.MustSet("id", expr.Int(2))
	if a.Equal(b) {
		t.Fatal("clone aliases original")
	}
	if a.MustGet("id").AsInt() != 1 {
		t.Fatal("original mutated")
	}
	c := mustContainer(ts, "Money")
	if a.Equal(c) {
		t.Fatal("different types equal")
	}
}

func TestContainerSnapshotRestore(t *testing.T) {
	ts := newTestTypes(t)
	a := mustContainer(ts, "Order")
	a.MustSet("id", expr.Int(9))
	a.SetRC(3)
	b := mustContainer(ts, "Order")
	if err := b.Restore(a.Vector()); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("restore mismatch: %s vs %s", a, b)
	}
	if err := b.Restore([]string{"nope"}, []expr.Value{expr.Int(1)}); err == nil {
		t.Error("restore of unknown path accepted")
	}
}

func TestContainerCopyFrom(t *testing.T) {
	ts := newTestTypes(t)
	src := mustContainer(ts, "Order")
	src.MustSet("id", expr.Int(5))
	dst := mustContainer(ts, "SagaState")
	if err := dst.CopyFrom(src, "id", "State_1"); err != nil {
		t.Fatal(err)
	}
	if dst.MustGet("State_1").AsInt() != 5 {
		t.Error("CopyFrom did not copy")
	}
	if err := dst.CopyFrom(src, "missing", "State_1"); err == nil {
		t.Error("missing source accepted")
	}
	if err := dst.CopyFrom(src, "id", "missing"); err == nil {
		t.Error("missing target accepted")
	}
}

// TestCopySlotMatchesCopyFrom checks that a copy between resolved slots
// coerces and fails as the copy by name does.
func TestCopySlotMatchesCopyFrom(t *testing.T) {
	ts := newTestTypes(t)
	src := mustContainer(ts, "Order")
	src.MustSet("id", expr.Int(5))
	slot := func(c *Container, path string) int {
		i, ok := c.SlotOf(path)
		if !ok {
			t.Fatalf("%s has no slot for %q", c.Type().Name, path)
		}
		return i
	}
	for _, m := range []struct{ from, typ, to string }{
		{"id", "SagaState", "State_1"},    // same kind
		{"id", "Order", "total.amount"},   // LONG widened to FLOAT
		{"paid", "SagaState", "State_2"},  // BOOL does not assign to LONG
		{"total.currency", "Order", "id"}, // nor STRING
	} {
		byName, bySlot := mustContainer(ts, m.typ), mustContainer(ts, m.typ)
		errName := byName.CopyFrom(src, m.from, m.to)
		errSlot := bySlot.CopySlot(src, slot(src, m.from), slot(bySlot, m.to))
		if (errName == nil) != (errSlot == nil) || (errName != nil && errName.Error() != errSlot.Error()) {
			t.Errorf("%v: CopyFrom %v, CopySlot %v", m, errName, errSlot)
		}
		if !byName.Equal(bySlot) {
			t.Errorf("%v: CopyFrom gave %v, CopySlot %v", m, byName, bySlot)
		}
	}
	if _, ok := src.SlotOf("missing"); ok {
		t.Error("a slot for a missing member")
	}
}

// TestCopyCommon checks the bridge between containers: slot for slot when
// both share a type, member by member otherwise, and a member whose kinds
// do not assign keeps its value while every other is copied and the first
// such member's error is returned.
func TestCopyCommon(t *testing.T) {
	ts := newTestTypes(t)
	src := mustContainer(ts, "SagaState")
	src.MustSet("State_1", expr.Int(1))
	src.MustSet("State_2", expr.Int(2))
	src.SetRC(3)
	frozen := src.Clone()
	frozen.Freeze()
	same := mustContainer(ts, "SagaState")
	if err := same.CopyCommon(frozen); err != nil || !same.Equal(src) {
		t.Fatalf("same type: %v, got %v", err, same)
	}
	if err := frozen.CopyCommon(src); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("copy into a frozen container: %v", err)
	}

	other := NewTypes()
	if err := other.Register(&StructType{Name: "SagaState", Members: []Member{
		{Name: "State_1", Basic: String},
		{Name: "State_2", Basic: Float},
		{Name: "extra", Basic: Long, Default: expr.Int(7)},
	}}); err != nil {
		t.Fatal(err)
	}
	dst := mustContainer(other, "SagaState")
	err := dst.CopyCommon(src)
	if err == nil || !strings.Contains(err.Error(), `member "State_1"`) {
		t.Fatalf("kind mismatch: %v", err)
	}
	if got := dst.MustGet("State_1"); got.Kind() != expr.KindString || got.AsString() != "" {
		t.Errorf("State_1 = %v, want its default", got)
	}
	if dst.MustGet("State_2").AsFloat() != 2 || dst.RC() != 3 || dst.MustGet("extra").AsInt() != 7 {
		t.Errorf("common members not copied: %v", dst)
	}
}

// TestBoundConditionMatchesUnbound checks that a condition bound to a
// container's slots evaluates as the unbound one does, and that a
// reference to a member the container lacks fails with the same error.
func TestBoundConditionMatchesUnbound(t *testing.T) {
	ts := newTestTypes(t)
	c := mustContainer(ts, "Order")
	c.MustSet("id", expr.Int(5))
	c.MustSet("total.amount", expr.Float(2.5))
	slot := func(path []string) (int, bool) { return c.SlotOf(strings.Join(path, ".")) }
	for _, src := range []string{
		`id = 5 AND total.amount > 2`,
		`NOT paid OR total.currency = "EUR"`,
		`id = 5 AND missing = 1`,
		`missing.deep = 1 OR id = 5`,
		`RC <> 0`,
	} {
		n := expr.MustParse(src)
		b := expr.Bind(n, slot)
		if b.String() != n.String() {
			t.Errorf("%s: bound renders as %s", src, b)
		}
		want, wantErr := expr.EvalBool(n, c)
		got, gotErr := expr.EvalBool(b, c)
		if got != want || (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Errorf("%s: bound %v, %v; unbound %v, %v", src, got, gotErr, want, wantErr)
		}
		if strings.Contains(src, "missing") && (gotErr == nil || !strings.Contains(gotErr.Error(), `unknown member "missing`)) {
			t.Errorf("%s: error %v, want an unknown member", src, gotErr)
		}
	}
}

// buildValidProcess returns a small but complete process exercising all
// construct kinds.
func buildValidProcess(t *testing.T) *Process {
	t.Helper()
	p := NewProcess("Demo")
	p.Types = newTestTypes(t)
	p.InputType = "Order"
	p.OutputType = "SagaState"
	inner := &Graph{
		InputType:  "Order",
		OutputType: "SagaState",
		Activities: []*Activity{
			{Name: "step1", Kind: KindProgram, Program: "p1", InputType: "Order", OutputType: "Order"},
			{Name: "step2", Kind: KindProgram, Program: "p2"},
		},
		Control: []*ControlConnector{
			{From: "step1", To: "step2", Condition: expr.MustParse("RC = 0")},
		},
		Data: []*DataConnector{
			{From: ScopeRef, To: "step1", Maps: []DataMap{{FromPath: "id", ToPath: "id"}}},
			{From: "step1", To: ScopeRef, Maps: []DataMap{{FromPath: "RC", ToPath: "State_1"}}},
		},
	}
	p.Activities = []*Activity{
		{Name: "A", Kind: KindProgram, Program: "prog_a", InputType: "Order", OutputType: "Order",
			Exit: expr.MustParse("RC = 0")},
		{Name: "B", Kind: KindBlock, Block: inner, InputType: "Order", OutputType: "SagaState"},
		{Name: "C", Kind: KindProgram, Program: "prog_c", Join: JoinOr,
			Start: StartManual, Staff: Staff{Role: "clerk"}, NotifySeconds: 60, NotifyRole: "manager"},
	}
	p.Control = []*ControlConnector{
		{From: "A", To: "B", Condition: expr.MustParse("RC = 0")},
		{From: "A", To: "C"},
		{From: "B", To: "C", Condition: expr.MustParse("State_1 = 0")},
	}
	p.Data = []*DataConnector{
		{From: ScopeRef, To: "A", Maps: []DataMap{{FromPath: "id", ToPath: "id"}}},
		{From: "A", To: "B", Maps: []DataMap{{FromPath: "id", ToPath: "id"}}},
		{From: "B", To: ScopeRef, Maps: []DataMap{{FromPath: "State_1", ToPath: "State_1"}}},
	}
	return p
}

func TestValidateOK(t *testing.T) {
	p := buildValidProcess(t)
	if err := p.Validate(nil); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatches(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(p *Process)
	}{
		{"empty process name", func(p *Process) { p.Name = "" }},
		{"unknown input type", func(p *Process) { p.InputType = "Nope" }},
		{"duplicate activity", func(p *Process) {
			p.Activities = append(p.Activities, &Activity{Name: "A", Kind: KindProgram, Program: "x"})
		}},
		{"program without name", func(p *Process) { p.Activities[0].Program = "" }},
		{"block without body", func(p *Process) { p.Activities[1].Block = nil }},
		{"bad exit condition ref", func(p *Process) { p.Activities[0].Exit = expr.MustParse("nope = 1") }},
		{"unknown connector source", func(p *Process) {
			p.Control = append(p.Control, &ControlConnector{From: "Zed", To: "C"})
		}},
		{"unknown connector target", func(p *Process) {
			p.Control = append(p.Control, &ControlConnector{From: "A", To: "Zed"})
		}},
		{"self loop", func(p *Process) {
			p.Control = append(p.Control, &ControlConnector{From: "C", To: "C"})
		}},
		{"duplicate connector", func(p *Process) {
			p.Control = append(p.Control, &ControlConnector{From: "A", To: "B"})
		}},
		{"cycle", func(p *Process) {
			p.Control = append(p.Control, &ControlConnector{From: "C", To: "A"})
		}},
		{"bad transition cond ref", func(p *Process) {
			p.Control[0].Condition = expr.MustParse("nonexistent = 0")
		}},
		{"data unknown source", func(p *Process) {
			p.Data = append(p.Data, &DataConnector{From: "Zed", To: "A", Maps: []DataMap{{FromPath: "RC", ToPath: "RC"}}})
		}},
		{"data unknown target", func(p *Process) {
			p.Data = append(p.Data, &DataConnector{From: "A", To: "Zed", Maps: []DataMap{{FromPath: "RC", ToPath: "RC"}}})
		}},
		{"data scope to scope", func(p *Process) {
			p.Data = append(p.Data, &DataConnector{From: ScopeRef, To: ScopeRef, Maps: []DataMap{{FromPath: "id", ToPath: "State_1"}}})
		}},
		{"data empty maps", func(p *Process) {
			p.Data = append(p.Data, &DataConnector{From: "A", To: "B"})
		}},
		{"data bad source path", func(p *Process) {
			p.Data = append(p.Data, &DataConnector{From: "A", To: "B", Maps: []DataMap{{FromPath: "zz", ToPath: "id"}}})
		}},
		{"data incompatible kinds", func(p *Process) {
			p.Data = append(p.Data, &DataConnector{From: "A", To: "B", Maps: []DataMap{{FromPath: "paid", ToPath: "id"}}})
		}},
		{"manual without staff", func(p *Process) {
			p.Activities[2].Staff = Staff{}
		}},
		{"notify without role", func(p *Process) {
			p.Activities[2].NotifyRole = ""
		}},
		{"negative deadline", func(p *Process) {
			p.Activities[2].NotifySeconds = -5
		}},
		{"self subprocess", func(p *Process) {
			p.Activities = append(p.Activities, &Activity{Name: "Z", Kind: KindProcess, Subprocess: "Demo"})
		}},
		{"block type mismatch", func(p *Process) {
			p.Activities[1].Block.InputType = "SagaState"
		}},
		{"inner graph error", func(p *Process) {
			p.Activities[1].Block.Control = append(p.Activities[1].Block.Control,
				&ControlConnector{From: "step2", To: "step1"})
		}},
	}
	for _, m := range mutations {
		p := buildValidProcess(t)
		m.mut(p)
		if err := p.Validate(nil); err == nil {
			t.Errorf("%s: Validate succeeded, want error", m.name)
		}
	}
}

// TestValidateMessages pins the exact issue text, nested scopes included:
// an issue's place in the process is spelled out only when it is
// recorded, and must read as it always has.
func TestValidateMessages(t *testing.T) {
	cases := []struct {
		mut  func(p *Process)
		want []string
	}{
		{func(p *Process) { p.InputType = "Nope"; p.OutputType = "Nada" }, []string{
			`process input references unknown structure "Nope"`,
			`process output references unknown structure "Nada"`,
			`process data connector "" -> "A": source path "id": model: unknown structure "Nope"`,
			`process data connector "B" -> "": target path "State_1": model: unknown structure "Nada"`,
		}},
		{func(p *Process) {
			p.Activities[0].Exit = expr.MustParse("nope = 1")
			p.Activities[0].OutputType = "Zip"
		}, []string{
			`process activity "A" output references unknown structure "Zip"`,
			`process activity "A" exit condition: model: unknown structure "Zip"`,
			`process data connector "A" -> "B": source path "id": model: unknown structure "Zip"`,
		}},
		{func(p *Process) { p.Control[0].Condition = expr.MustParse("nonexistent = 0") }, []string{
			`process connector "A" -> "B" transition condition: model: structure "Order" has no member "nonexistent"`,
		}},
		{func(p *Process) {
			p.Control = append(p.Control, &ControlConnector{From: "A", To: "B"}, &ControlConnector{From: "C", To: "Zed"})
		}, []string{
			`process connector "A" -> "B": duplicate connector`,
			`process connector "C" -> "Zed": unknown target activity`,
		}},
		{func(p *Process) {
			p.Data = append(p.Data, &DataConnector{From: "A", To: "B", Maps: []DataMap{
				{FromPath: "paid", ToPath: "id"}, {FromPath: "zz", ToPath: "id"}, {FromPath: "id", ToPath: "yy"}}})
		}, []string{
			`process data connector "A" -> "B": map "paid"(BOOL) -> "id"(LONG) is not assignment compatible`,
			`process data connector "A" -> "B": source path "zz": model: structure "Order" has no member "zz"`,
			`process data connector "A" -> "B": target path "yy": model: structure "Order" has no member "yy"`,
		}},
		{func(p *Process) { p.Activities = append(p.Activities, &Activity{Name: "", Kind: KindProgram}) }, []string{
			`process has an activity with empty name`,
		}},
		{func(p *Process) {
			b := p.Activities[1].Block
			b.InputType = "Bad"
			b.Activities[0].Exit = expr.MustParse("q = 1")
			b.Activities[1].Program = ""
			b.Control[0].Condition = expr.MustParse("w = 2")
			b.Data = append(b.Data, &DataConnector{From: "step9", To: "step1"}, &DataConnector{From: ScopeRef, To: ScopeRef})
		}, []string{
			`process activity "B": block scope types must equal the activity container types`,
			`process activity "B" input references unknown structure "Bad"`,
			`process activity "B" activity "step1" exit condition: model: structure "Order" has no member "q"`,
			`process activity "B" activity "step2": program activity without program`,
			`process activity "B" connector "step1" -> "step2" transition condition: model: structure "Order" has no member "w"`,
			`process activity "B" data connector "" -> "step1": source path "id": model: unknown structure "Bad"`,
			`process activity "B" data connector "step9" -> "step1": unknown source`,
			`process activity "B" data connector "" -> "": maps scope input directly to scope output`,
			`process activity "B" data connector "" -> "": no member maps`,
		}},
		{func(p *Process) {
			inner := &Graph{InputType: "Order", OutputType: "Order",
				Activities: []*Activity{{Name: "deep", Kind: KindProgram, Retry: &RetryPolicy{MaxAttempts: -1}, DeadlineMS: -1}}}
			b := p.Activities[1].Block
			b.Activities = append(b.Activities, &Activity{Name: "nest", Kind: KindBlock, Block: inner, InputType: "Order", OutputType: "SagaState"})
		}, []string{
			`process activity "B" activity "nest": block scope types must equal the activity container types`,
			`process activity "B" activity "nest" activity "deep": program activity without program`,
			`process activity "B" activity "nest" activity "deep": retry policy fields must be non-negative`,
			`process activity "B" activity "nest" activity "deep": negative program deadline`,
		}},
		{func(p *Process) {
			p.Activities = append(p.Activities, &Activity{Name: "Z", Kind: KindProcess, Subprocess: "Demo", NotifySeconds: 3},
				&Activity{Name: "Y", Kind: 99, Retry: &RetryPolicy{}, DeadlineMS: 5})
		}, []string{
			`process activity "Z": process activity invokes its own process (recursion not allowed)`,
			`process activity "Z": notification deadline without a role to notify`,
			`process activity "Y": invalid kind ActivityKind(99)`,
			`process activity "Y": retry policy on a non-program activity`,
			`process activity "Y": program deadline on a non-program activity`,
		}},
	}
	for i, c := range cases {
		p := buildValidProcess(t)
		c.mut(p)
		var ve *ValidationError
		if err := p.Validate(map[string]bool{"Demo": true}); !errors.As(err, &ve) {
			t.Fatalf("case %d: Validate = %v, want a ValidationError", i, err)
		}
		if !reflect.DeepEqual(ve.Issues, c.want) {
			t.Errorf("case %d issues:\n got %q\nwant %q", i, ve.Issues, c.want)
		}
	}
}

// TestValidateFormatsNothing pins that validating a valid process spells
// out no issue location: 19 allocations (the per-scope name, edge and
// colour maps, condition references, resolved paths, the block's scope)
// where formatting every activity's and connector's place took 83.
func TestValidateFormatsNothing(t *testing.T) {
	p := buildValidProcess(t)
	if n := testing.AllocsPerRun(100, func() { _ = p.Validate(nil) }); n > 22 {
		t.Fatalf("Validate of a valid process: %.0f allocations, ceiling 22", n)
	}
}

func TestValidateSubprocessRegistry(t *testing.T) {
	p := buildValidProcess(t)
	p.Activities = append(p.Activities, &Activity{Name: "Sub", Kind: KindProcess, Subprocess: "Other"})
	p.Control = append(p.Control, &ControlConnector{From: "C", To: "Sub"})
	if err := p.Validate(nil); err != nil {
		t.Fatalf("nil registry should skip subprocess check: %v", err)
	}
	if err := p.Validate(map[string]bool{"Other": true, "Demo": true}); err != nil {
		t.Fatalf("known subprocess rejected: %v", err)
	}
	if err := p.Validate(map[string]bool{"Demo": true}); err == nil {
		t.Fatal("unknown subprocess accepted")
	}
}

func TestGraphQueries(t *testing.T) {
	p := buildValidProcess(t)
	starts := p.Starts()
	if len(starts) != 1 || starts[0].Name != "A" {
		t.Fatalf("Starts = %v", starts)
	}
	if got := len(p.Incoming("C")); got != 2 {
		t.Errorf("Incoming(C) = %d", got)
	}
	if got := len(p.Outgoing("A")); got != 2 {
		t.Errorf("Outgoing(A) = %d", got)
	}
	if p.Graph.Activity("B") == nil || p.Graph.Activity("zz") != nil {
		t.Error("Activity lookup wrong")
	}
	if got := len(p.DataInto("A")); got != 1 {
		t.Errorf("DataInto(A) = %d", got)
	}
	if got := len(p.DataInto(ScopeRef)); got != 1 {
		t.Errorf("DataInto(scope) = %d", got)
	}
}

func TestStringers(t *testing.T) {
	for _, k := range []ActivityKind{KindProgram, KindProcess, KindBlock, ActivityKind(99)} {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
	if JoinAnd.String() != "AND" || JoinOr.String() != "OR" {
		t.Error("join strings")
	}
	if StartAutomatic.String() != "AUTOMATIC" || StartManual.String() != "MANUAL" {
		t.Error("start strings")
	}
	for _, b := range []BasicKind{Long, Float, String, Bool, BasicKind(77)} {
		if b.String() == "" {
			t.Error("empty basic kind string")
		}
	}
	cc := &ControlConnector{From: "a", To: "b"}
	if cc.CondString() != "TRUE" {
		t.Error("nil condition should render TRUE")
	}
	a := &Activity{Name: "x", Kind: KindProgram, Program: "p"}
	if a.In() != DefaultType || a.Out() != DefaultType {
		t.Error("container type defaults")
	}
}
