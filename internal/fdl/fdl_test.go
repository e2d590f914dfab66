package fdl

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/model"
)

const sampleFDL = `
/* A sample definition file exercising every construct. */
STRUCTURE 'Money'
  'amount': FLOAT
  'currency': STRING DEFAULT "USD"
END 'Money'

STRUCTURE 'Order'
  'id': LONG
  'total': 'Money'
  'paid': BOOL
END 'Order'

STRUCTURE 'SagaState'
  'State_1': LONG DEFAULT -1
  'State_2': LONG DEFAULT -1
END 'SagaState'

PROGRAM 'p1'
  DESCRIPTION "first program"
END 'p1'

PROGRAM 'p2'
END 'p2'

PROCESS 'Demo' ( 'Order', 'SagaState' )
  DESCRIPTION "demo process"
  PROGRAM_ACTIVITY 'A' ( 'Order', 'Order' )
    PROGRAM 'p1'
    EXIT WHEN "RC = 0"
  END 'A'
  BLOCK 'B' ( 'Order', 'SagaState' )
    PROGRAM_ACTIVITY 'step1' ( 'Order', 'Order' )
      PROGRAM 'p1'
    END 'step1'
    PROGRAM_ACTIVITY 'step2' ( 'Default', 'Default' )
      PROGRAM 'p2'
    END 'step2'
    CONTROL FROM 'step1' TO 'step2' WHEN "RC = 0"
    DATA FROM SOURCE TO 'step1' MAP 'id' TO 'id'
    DATA FROM 'step1' TO SINK MAP 'RC' TO 'State_1'
  END 'B'
  PROGRAM_ACTIVITY 'C' ( 'Default', 'Default' )
    PROGRAM 'p2'
    START MANUAL WHEN ANY
    DONE_BY ROLE 'clerk'
    NOTIFY AFTER 60 ROLE 'manager'
  END 'C'
  CONTROL FROM 'A' TO 'B' WHEN "RC = 0"
  CONTROL FROM 'A' TO 'C'
  CONTROL FROM 'B' TO 'C' WHEN "State_1 = 0"
  DATA FROM SOURCE TO 'A' MAP 'id' TO 'id'
  DATA FROM 'A' TO 'B' MAP 'id' TO 'id'
  DATA FROM 'B' TO SINK MAP 'State_1' TO 'State_1' MAP 'State_2' TO 'State_2'
END 'Demo'
`

func parseSample(t *testing.T) *File {
	t.Helper()
	f, err := Parse(sampleFDL)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func TestParseSample(t *testing.T) {
	f := parseSample(t)
	if len(f.Programs) != 2 || f.Program("p1") == nil || f.Program("p1").Description != "first program" {
		t.Fatalf("programs: %+v", f.Programs)
	}
	if f.Program("zz") != nil {
		t.Fatal("phantom program")
	}
	proc := f.Process("Demo")
	if proc == nil {
		t.Fatal("process Demo missing")
	}
	if f.Process("zz") != nil {
		t.Fatal("phantom process")
	}
	if proc.InputType != "Order" || proc.OutputType != "SagaState" {
		t.Fatalf("process types: %q %q", proc.InputType, proc.OutputType)
	}
	if len(proc.Activities) != 3 || len(proc.Control) != 3 || len(proc.Data) != 3 {
		t.Fatalf("process shape: %d activities, %d control, %d data",
			len(proc.Activities), len(proc.Control), len(proc.Data))
	}
	b := proc.Graph.Activity("B")
	if b == nil || b.Kind != model.KindBlock || b.Block == nil {
		t.Fatal("block B missing")
	}
	if len(b.Block.Activities) != 2 || len(b.Block.Control) != 1 || len(b.Block.Data) != 2 {
		t.Fatalf("block shape: %+v", b.Block)
	}
	c := proc.Graph.Activity("C")
	if c.Start != model.StartManual || c.Join != model.JoinOr {
		t.Fatalf("C start/join: %v %v", c.Start, c.Join)
	}
	if c.Staff.Role != "clerk" || c.NotifySeconds != 60 || c.NotifyRole != "manager" {
		t.Fatalf("C staff: %+v", c)
	}
	a := proc.Graph.Activity("A")
	if a.Exit == nil || a.Exit.String() != "RC = 0" {
		t.Fatalf("A exit: %v", a.Exit)
	}
	// Default type normalization.
	if proc.Graph.Activity("C").InputType != "" {
		t.Fatal("'Default' not normalized to empty")
	}
	st, ok := f.Types.Lookup("SagaState")
	if !ok || st.Member("State_1").Default.AsInt() != -1 {
		t.Fatal("structure defaults not parsed")
	}
}

func TestCheckSample(t *testing.T) {
	f := parseSample(t)
	if err := f.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	f := parseSample(t)
	text := Export(f)
	f2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse exported FDL: %v\n%s", err, text)
	}
	if err := f2.Check(); err != nil {
		t.Fatalf("re-parsed file check: %v", err)
	}
	text2 := Export(f2)
	if text != text2 {
		t.Fatalf("export not stable:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}
}

func TestCheckCatchesUnregisteredProgram(t *testing.T) {
	src := `
PROCESS 'P' ( 'Default', 'Default' )
  PROGRAM_ACTIVITY 'A' ( 'Default', 'Default' )
    PROGRAM 'ghost'
  END 'A'
END 'P'
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Check(); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("Check = %v, want unregistered program error", err)
	}
}

func TestCheckCatchesUnregisteredProgramInBlock(t *testing.T) {
	src := `
PROCESS 'P' ( 'Default', 'Default' )
  BLOCK 'B' ( 'Default', 'Default' )
    PROGRAM_ACTIVITY 'A' ( 'Default', 'Default' )
      PROGRAM 'ghost'
    END 'A'
  END 'B'
END 'P'
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Check(); err == nil {
		t.Fatal("Check passed with unregistered program in block")
	}
}

func TestCheckDuplicates(t *testing.T) {
	dupProc := `
PROGRAM 'p' END 'p'
PROCESS 'P' ( 'Default', 'Default' )
  PROGRAM_ACTIVITY 'A' ( 'Default', 'Default' ) PROGRAM 'p' END 'A'
END 'P'
PROCESS 'P' ( 'Default', 'Default' )
  PROGRAM_ACTIVITY 'A' ( 'Default', 'Default' ) PROGRAM 'p' END 'A'
END 'P'
`
	f, err := Parse(dupProc)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Check(); err == nil {
		t.Fatal("duplicate process accepted")
	}
	dupProg := `
PROGRAM 'p' END 'p'
PROGRAM 'p' END 'p'
`
	f, err = Parse(dupProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Check(); err == nil {
		t.Fatal("duplicate program accepted")
	}
}

func TestSubprocessReference(t *testing.T) {
	src := `
PROGRAM 'p' END 'p'
PROCESS 'Child' ( 'Default', 'Default' )
  PROGRAM_ACTIVITY 'A' ( 'Default', 'Default' ) PROGRAM 'p' END 'A'
END 'Child'
PROCESS 'Parent' ( 'Default', 'Default' )
  PROCESS_ACTIVITY 'S' ( 'Default', 'Default' )
    PROCESS 'Child'
  END 'S'
END 'Parent'
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// Unknown subprocess must be rejected.
	src2 := strings.Replace(src, "PROCESS 'Child'\n  END 'S'", "PROCESS 'Ghost'\n  END 'S'", 1)
	f2, err := Parse(src2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Check(); err == nil {
		t.Fatal("unknown subprocess accepted")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"WHAT",                                                         // unknown top-level keyword
		"STRUCTURE 'S' 'a': WAT END 'S'",                               // unknown type
		"STRUCTURE 'S' 'a': LONG END 'X'",                              // END mismatch
		"STRUCTURE 'S' 'a' LONG END 'S'",                               // missing colon
		"STRUCTURE 'S' 'a': 'T' DEFAULT 1 END 'S'",                     // default on struct member
		"PROGRAM p END 'p'",                                            // unquoted name
		"PROCESS 'P' ( 'A' 'B' )",                                      // missing comma
		"PROCESS 'P' ( 'A', 'B'",                                       // missing rparen
		"PROCESS 'P' FOO END 'P'",                                      // bad body keyword
		"PROCESS 'P' CONTROL FROM 'a' 'b' END 'P'",                     // missing TO
		"PROCESS 'P' PROGRAM_ACTIVITY 'A' PROCESS 'x' END 'A' END 'P'", // PROCESS on program activity
		"PROCESS 'P' PROGRAM_ACTIVITY 'A' START SOMETIMES END 'A' END 'P'",
		"PROCESS 'P' PROGRAM_ACTIVITY 'A' EXIT WHEN \"RC =\" END 'A' END 'P'", // bad condition
		"PROCESS 'P' DATA FROM SOURCE TO SINK MAP 'a' 'b' END 'P'",            // MAP missing TO
		"PROCESS 'P' PROGRAM_ACTIVITY 'A' DONE_BY TEAM 'x' END 'A' END 'P'",
		"PROCESS 'P' PROGRAM_ACTIVITY 'A' NOTIFY AFTER 'x' ROLE 'r' END 'A' END 'P'",
		"PROCESS 'P' PROGRAM_ACTIVITY 'A' PROGRAM 'p' CONTROL FROM 'a' TO 'b' END 'A' END 'P'", // control in program activity
		"STRUCTURE 'S' 'a': LONG DEFAULT \"x\"",                                                // unterminated + wrong default later
		"/* unterminated comment",
		"'stray name'",
		"PROCESS 'P' ( 'A', 'B' ) END 'Q'", // END mismatch
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestCommentsAndEscapes(t *testing.T) {
	src := `
// line comment
PROGRAM 'has\'quote'
  DESCRIPTION "line1\nline2 \"quoted\" tab\t."
END 'has\'quote' /* trailing */
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p := f.Program("has'quote")
	if p == nil {
		t.Fatal("escaped name not parsed")
	}
	if p.Description != "line1\nline2 \"quoted\" tab\t." {
		t.Fatalf("description: %q", p.Description)
	}
	// Round trip the escapes.
	f2, err := Parse(Export(f))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if f2.Program("has'quote") == nil || f2.Programs[0].Description != p.Description {
		t.Fatal("escape round trip failed")
	}
}

func TestConditionStringEscapes(t *testing.T) {
	src := `
PROGRAM 'p' END 'p'
PROCESS 'P' ( 'Default', 'Default' )
  PROGRAM_ACTIVITY 'A' ( 'Default', 'Default' )
    PROGRAM 'p'
  END 'A'
  PROGRAM_ACTIVITY 'B' ( 'Default', 'Default' )
    PROGRAM 'p'
  END 'B'
  CONTROL FROM 'A' TO 'B' WHEN "RC = 0"
END 'P'
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	out := Export(f)
	if !strings.Contains(out, `WHEN "RC = 0"`) {
		t.Fatalf("condition not exported: %s", out)
	}
}

func TestFloatDefaults(t *testing.T) {
	src := `
STRUCTURE 'F'
  'rate': FLOAT DEFAULT 2.5
  'neg':  FLOAT DEFAULT -0.125
  'whole': FLOAT DEFAULT 3
END 'F'
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := f.Types.Lookup("F")
	if st.Member("rate").Default.AsFloat() != 2.5 || st.Member("neg").Default.AsFloat() != -0.125 {
		t.Fatalf("float defaults: %+v", st.Members)
	}
	if st.Member("whole").Default.AsFloat() != 3 {
		t.Fatal("integral float default")
	}
	// Round trip.
	f2, err := Parse(Export(f))
	if err != nil {
		t.Fatal(err)
	}
	st2, _ := f2.Types.Lookup("F")
	if st2.Member("rate").Default.AsFloat() != 2.5 || st2.Member("neg").Default.AsFloat() != -0.125 {
		t.Fatal("float round trip")
	}
	// Float default on a LONG member is rejected.
	if _, err := Parse("STRUCTURE 'G' 'n': LONG DEFAULT 2.5 END 'G'"); err == nil {
		t.Fatal("float default on LONG accepted")
	}
}

func TestMoreParsePaths(t *testing.T) {
	// VERSION clause, boolean defaults, DONE_BY PERSON and block loop exit.
	src := `
STRUCTURE 'Flags'
  'on': BOOL DEFAULT TRUE
  'off': BOOL DEFAULT FALSE
END 'Flags'
PROGRAM 'p' END 'p'
PROCESS 'V' ( 'Default', 'Default' )
  DESCRIPTION "versioned"
  VERSION 3
  PROGRAM_ACTIVITY 'A' ( 'Default', 'Flags' )
    PROGRAM 'p'
    START AUTOMATIC WHEN ALL
    DONE_BY PERSON 'alice'
  END 'A'
  BLOCK 'L' ( 'Default', 'Flags' )
    PROGRAM_ACTIVITY 'inner' ( 'Default', 'Flags' )
      PROGRAM 'p'
    END 'inner'
    DATA FROM 'inner' TO SINK MAP 'on' TO 'on'
  END 'L'
  CONTROL FROM 'A' TO 'L' WHEN "RC = 0"
END 'V'
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	proc := f.Process("V")
	if proc.Version != 3 {
		t.Fatalf("version = %d", proc.Version)
	}
	if proc.Graph.Activity("A").Staff.Person != "alice" {
		t.Fatal("DONE_BY PERSON lost")
	}
	st, _ := f.Types.Lookup("Flags")
	if !st.Member("on").Default.AsBool() || st.Member("off").Default.IsNull() == true && false {
		t.Fatalf("bool defaults: %+v", st.Members)
	}
	// Round trip preserves version and staff.
	f2, err := Parse(Export(f))
	if err != nil {
		t.Fatal(err)
	}
	if f2.Process("V").Version != 3 || f2.Process("V").Graph.Activity("A").Staff.Person != "alice" {
		t.Fatal("round trip lost clauses")
	}
	// Error type formats a line number.
	perr := &Error{Line: 7, Msg: "boom"}
	if !strings.Contains(perr.Error(), "line 7") {
		t.Fatal("Error format")
	}
}

func TestMoreParseErrors(t *testing.T) {
	bad := []string{
		"PROCESS 'P' ( 'A', 'B' ) VERSION 'x' END 'P'",                               // version wants int
		"PROCESS 'P' DATA FROM 'a' TO 'b' MAP 'x' TO END 'P'",                        // missing target path
		"PROCESS 'P' DATA FROM TO 'b' END 'P'",                                       // missing source
		"PROCESS 'P' DATA FROM 'a' TO END 'P'",                                       // missing target
		"PROCESS 'P' PROGRAM_ACTIVITY 'A' ( 'X' ) END 'A' END 'P'",                   // one-type parens
		"PROCESS 'P' PROCESS_ACTIVITY 'A' PROGRAM 'x' END 'A' END 'P'",               // PROGRAM on process activity
		"PROCESS 'P' BLOCK 'B' PROGRAM 'x' END 'B' END 'P'",                          // PROGRAM on block
		"PROCESS 'P' PROGRAM_ACTIVITY 'A' START MANUAL WHEN MAYBE END 'A' END 'P'",   // bad join
		"PROCESS 'P' PROGRAM_ACTIVITY 'A' NOTIFY AFTER 5 PERSON 'x' END 'A' END 'P'", // notify wants ROLE
		"STRUCTURE 'S' 'a': BOOL DEFAULT 3 END 'S'",                                  // kind mismatch via registry
		"STRUCTURE 'S' 'a': LONG DEFAULT END 'S'",                                    // missing literal
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

// Every row of Constraints rejects a file that breaks it, by name. The
// parser accepts every violation, so each is written in FDL.
func TestConstraintsRejectByName(t *testing.T) {
	const prog = "PROGRAM 'p' END 'p'\n"
	proc := func(name, body string) string {
		return "PROCESS '" + name + "' ( 'Default', 'Default' )\n" + body + "END '" + name + "'\n"
	}
	call := func(program string) string {
		return "  PROGRAM_ACTIVITY 'A' ( 'Default', 'Default' ) PROGRAM '" + program + "' END 'A'\n"
	}
	cases := []struct{ constraint, src string }{
		{"fdl.no-type-cycles", "STRUCTURE 'A' 'b': 'B' END 'A'\nSTRUCTURE 'B' 'a': 'A' END 'B'\n"},
		{"fdl.program-named", "PROGRAM '' END ''\n"},
		{"fdl.unique-programs", prog + prog},
		{"fdl.unique-processes", prog + proc("P", call("p")) + proc("P", call("p"))},
		{"fdl.process-valid", proc("P", "  PROCESS_ACTIVITY 'S' ( 'Default', 'Default' ) PROCESS 'Ghost' END 'S'\n")},
		{"fdl.programs-declared", proc("P", call("ghost"))},
	}
	for _, c := range cases {
		f, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.constraint, err)
		}
		var v *atm.Violation
		if err := f.Check(); !errors.As(err, &v) || v.Constraint != c.constraint {
			t.Errorf("%s: Check = %v, want a violation of that row", c.constraint, err)
		}
	}
	if len(cases) != len(Constraints) {
		t.Fatalf("%d cases for %d rows", len(cases), len(Constraints))
	}
}
