package model

import (
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
