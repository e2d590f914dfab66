package fmtm

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/model"
)

// TestCopyProgramFailsOnMismatchedKinds pins the NOP's side of
// model.Container.CopyCommon: where a subprocess bridge skips a common
// member whose kinds do not assign, the NOP fails before it sets RC 0.
func TestCopyProgramFailsOnMismatchedKinds(t *testing.T) {
	ts := model.NewTypes()
	for _, st := range []*model.StructType{
		{Name: "In", Members: []model.Member{{Name: "x", Basic: model.Long}, {Name: "y", Basic: model.String}}},
		{Name: "Out", Members: []model.Member{{Name: "x", Basic: model.Long}, {Name: "y", Basic: model.Long}}},
	} {
		if err := ts.Register(st); err != nil {
			t.Fatal(err)
		}
	}
	container := func(name string) *model.Container {
		c, err := ts.NewContainer(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	in := container("In")
	in.MustSet("x", expr.Int(3))
	in.SetRC(1)
	in.Freeze()
	out := container("Out")
	out.SetRC(7)
	err := CopyProgram.Run(&engine.Invocation{In: in, Out: out})
	if err == nil || !strings.Contains(err.Error(), `member "y"`) {
		t.Fatalf("CopyProgram: %v, want the y member's kind error", err)
	}
	if out.RC() != 1 || out.MustGet("x").AsInt() != 3 {
		t.Errorf("common members of matching kinds not copied: %v", out)
	}

	same := container("In")
	if err := CopyProgram.Run(&engine.Invocation{In: in, Out: same}); err != nil || same.RC() != 0 || same.MustGet("x").AsInt() != 3 {
		t.Errorf("same type: %v, out %v", err, same)
	}
}
