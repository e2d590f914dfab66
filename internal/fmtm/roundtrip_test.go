package fmtm

import (
	"testing"

	"repro/internal/fdl"
	"repro/internal/model"
)

// exportOne wraps a generated process into a one-process FDL file with its
// program registrations.
func exportOne(p *model.Process) *fdl.File {
	file := &fdl.File{Types: p.Types, Processes: []*model.Process{p}}
	seen := map[string]bool{}
	collectPrograms(&p.Graph, seen, &file.Programs)
	return file
}

// TestGeneratedFDLRoundTripStable: every translator's output survives
// export -> parse -> export textually unchanged, and the re-imported
// process passes the semantic checks. This exercises nested blocks, data
// connectors, exit conditions, OR joins and structure defaults in FDL.
func TestGeneratedFDLRoundTripStable(t *testing.T) {
	var procs []*model.Process
	p1, err := TranslateSaga(nStepSaga("lin", 4), SagaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := TranslateFlexible(fig3Spec())
	if err != nil {
		t.Fatal(err)
	}
	p3, err := TranslateGeneralSaga(diamondSaga(), SagaOptions{CompensateCompleted: true})
	if err != nil {
		t.Fatal(err)
	}
	procs = append(procs, p1, p2, p3)
	for _, p := range procs {
		file := exportOne(p)
		text := fdl.Export(file)
		re, err := fdl.Parse(text)
		if err != nil {
			t.Fatalf("%s: re-parse: %v\n%s", p.Name, err, text)
		}
		if err := re.Check(); err != nil {
			t.Fatalf("%s: re-check: %v", p.Name, err)
		}
		text2 := fdl.Export(re)
		if text != text2 {
			t.Fatalf("%s: export not stable", p.Name)
		}
	}
}
