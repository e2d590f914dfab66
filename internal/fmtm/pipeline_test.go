package fmtm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/atm/saga"
	"repro/internal/engine"
	"repro/internal/rm"
)

const mixedSpec = `
// A saga and the paper's Figure 3 flexible transaction in one file.
SAGA 'travel'
  STEP 'book_flight' COMPENSATION 'cancel_flight'
  STEP 'book_hotel'  COMPENSATION 'cancel_hotel'
  STEP 'book_car'    COMPENSATION 'cancel_car'
END 'travel'

FLEXIBLE 'fig3'
  SUB 'F1' COMPENSATABLE COMPENSATION 'FC1'
  SUB 'F2' PIVOT
  SUB 'F3' RETRIABLE
  SUB 'F4' PIVOT
  SUB 'F5' COMPENSATABLE COMPENSATION 'FC5'
  SUB 'F6' COMPENSATABLE COMPENSATION 'FC6'
  SUB 'F7' RETRIABLE
  SUB 'F8' PIVOT
  PATH 'F1' 'F2' 'F4' 'F5' 'F6' 'F8'
  PATH 'F1' 'F2' 'F4' 'F7'
  PATH 'F1' 'F2' 'F3'
END 'fig3'
`

// TestPipeline is experiment E3: the full Figure 5 pipeline — parse,
// model check, translate, FDL export, FDL import with syntactic check,
// semantic check — and finally execution of the imported templates.
func TestPipeline(t *testing.T) {
	res, err := Pipeline(mixedSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Specs.Sagas) != 1 || len(res.Specs.Flexible) != 1 {
		t.Fatalf("specs: %d sagas, %d flexible", len(res.Specs.Sagas), len(res.Specs.Flexible))
	}
	if !strings.Contains(res.FDL, "PROCESS 'travel'") || !strings.Contains(res.FDL, "PROCESS 'fig3'") {
		t.Fatalf("FDL missing processes:\n%s", res.FDL)
	}
	if !strings.Contains(res.FDL, "PROGRAM 'fmtm_nop'") {
		t.Fatal("FDL missing the NOP program registration")
	}
	if res.File.Process("travel") == nil || res.File.Process("fig3") == nil {
		t.Fatal("imported file missing processes")
	}

	// Execute both imported templates end to end.
	e := engine.New()
	if err := RegisterRuntime(e); err != nil {
		t.Fatal(err)
	}
	inj := rm.NewInjector()
	inj.AbortAlways("book_car") // saga aborts at step 3
	inj.AbortAlways("F8")       // flexible switches to F7
	rec := &rm.Recorder{}
	sagaSpec := res.Specs.Sagas[0]
	if err := RegisterSaga(e, sagaSpec, PureSagaBinding(sagaSpec), inj, rec); err != nil {
		t.Fatal(err)
	}
	flexSpec := res.Specs.Flexible[0]
	if err := RegisterFlexible(e, flexSpec, PureFlexibleBinding(flexSpec), inj, rec); err != nil {
		t.Fatal(err)
	}
	if err := Install(e, res.File); err != nil {
		t.Fatal(err)
	}

	inst, err := e.CreateInstance("travel", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if !inst.Finished() {
		t.Fatal("travel did not finish")
	}
	wantSaga := "book_flight:commit book_hotel:commit book_car:abort cancel_hotel:commit cancel_flight:commit"
	if got := historyString(rec); got != wantSaga {
		t.Fatalf("saga history = %s", got)
	}

	rec.Reset()
	inst2, err := e.CreateInstance("fig3", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst2.Start(); err != nil {
		t.Fatal(err)
	}
	if !inst2.Finished() {
		t.Fatal("fig3 did not finish")
	}
	wantFlex := "F1:commit F2:commit F4:commit F5:commit F6:commit F8:abort FC6:commit FC5:commit F7:commit"
	if got := historyString(rec); got != wantFlex {
		t.Fatalf("flexible history = %s", got)
	}
	if inst2.Output().MustGet("Result").AsInt() != 0 {
		t.Fatal("fig3 Result != 0")
	}
}

func TestPipelineRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"syntax", "SAGA 'x' STEP oops END 'x'"},
		{"saga missing compensation", "SAGA 'x' STEP 's' END 'x'"},
		{"unterminated", "SAGA 'x' STEP 's' COMPENSATION 'c'"},
		{"end mismatch", "SAGA 'x' STEP 's' COMPENSATION 'c' END 'y'"},
		{"unknown keyword", "PROCESS 'x' END 'x'"},
		{"flexible no type", "FLEXIBLE 'f' SUB 's' PATH 's' END 'f'"},
		{"flexible undeclared in path", "FLEXIBLE 'f' SUB 's' PIVOT PATH 'zz' END 'f'"},
		{"flexible ill-formed", `
FLEXIBLE 'f'
  SUB 'p1' PIVOT
  SUB 'p2' PIVOT
  PATH 'p1' 'p2'
END 'f'`},
		{"reserved saga name", "SAGA 'x' STEP 'NOP' COMPENSATION 'c' END 'x'"},
		{"comment unterminated", "/* SAGA"},
		{"bad char", "SAGA 'x' @ END 'x'"},
		{"empty path", "FLEXIBLE 'f' SUB 's' PIVOT PATH END 'f'"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Pipeline(c.src); err == nil {
				t.Fatalf("Pipeline accepted %q", c.src)
			}
		})
	}
}

// TestPipelineRejectsAtSpecificationStage: a file that breaks a constraint
// is rejected by the pre-processor's check naming the constraint, not
// later by FDL generation or the semantic check; the saga translators
// apply the reserved names too.
func TestPipelineRejectsAtSpecificationStage(t *testing.T) {
	sagaSrc := func(name string) string {
		return "SAGA '" + name + "' STEP 'a' COMPENSATION 'ca' END '" + name + "'\n"
	}
	flexSrc := func(name string) string {
		return "FLEXIBLE '" + name + "' SUB 'p' PIVOT PATH 'p' END '" + name + "'\n"
	}
	cases := []struct{ name, src, constraint string }{
		{"two sagas s", sagaSrc("s") + sagaSrc("s"), "fmtm.unique-transaction-names"},
		{"two flexible f", flexSrc("f") + flexSrc("f"), "fmtm.unique-transaction-names"},
		{"saga and flexible x", sagaSrc("x") + flexSrc("x"), "fmtm.unique-transaction-names"},
		{"reserved saga name", "SAGA 'x' STEP 'NOP' COMPENSATION 'c' END 'x'", "fmtm.reserved-names"},
		{"reserved parallel saga name", "SAGA 'x' STEP 'a' COMPENSATION 'Forward' STEP 'b' COMPENSATION 'cb' AFTER 'a' END 'x'", "fmtm.reserved-names"},
		{"empty path", "FLEXIBLE 'f' SUB 's' PIVOT PATH END 'f'", "flexible.paths-nonempty"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Pipeline(c.src)
			var v *atm.Violation
			if !strings.HasPrefix(fmt.Sprint(err), "fmtm: specification stage: ") || !errors.As(err, &v) || v.Constraint != c.constraint {
				t.Fatalf("Pipeline = %v, want the specification stage to reject by %s", err, c.constraint)
			}
		})
	}
	var v *atm.Violation
	steps := []saga.Step{{Name: "Compensation", Compensation: "c"}}
	if _, err := TranslateSaga(&saga.Spec{Name: "x", Steps: steps}, SagaOptions{}); !errors.As(err, &v) || v.Constraint != "fmtm.reserved-names" {
		t.Fatalf("TranslateSaga = %v", err)
	}
	if _, err := TranslateGeneralSaga(&saga.GeneralSpec{Name: "x", Steps: steps}, SagaOptions{}); !errors.As(err, &v) || v.Constraint != "fmtm.reserved-names" {
		t.Fatalf("TranslateGeneralSaga = %v", err)
	}
}

func TestPipelineFDLRoundTripStable(t *testing.T) {
	res, err := Pipeline(mixedSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Re-import the emitted FDL a second time: text must be stable.
	res2, err := Pipeline(mixedSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.FDL != res2.FDL {
		t.Fatal("pipeline output not deterministic")
	}
}

func TestSpecParserDetails(t *testing.T) {
	// Flexible with a compensatable+retriable subtransaction.
	src := `
FLEXIBLE 'f'
  SUB 'a' COMPENSATABLE RETRIABLE COMPENSATION 'ca'
  SUB 'p' PIVOT
  PATH 'a' 'p'
END 'f'`
	file, err := ParseSpec(src)
	if err != nil {
		t.Fatal(err)
	}
	sub := file.Flexible[0].Sub("a")
	if !sub.Compensatable || !sub.Retriable || sub.Compensation != "ca" {
		t.Fatalf("sub = %+v", sub)
	}
	// Comments of both kinds parse.
	src2 := "// hi\n/* multi\nline */ SAGA 's' STEP 'a' COMPENSATION 'b' END 's'"
	if _, err := ParseSpec(src2); err != nil {
		t.Fatal(err)
	}
}
