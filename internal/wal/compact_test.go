package wal

import (
	"testing"

	"repro/internal/expr"
)

func TestCompactDropsFinishedStarts(t *testing.T) {
	recs := []Record{
		{Type: RecCreated, Instance: "i", Process: "P", Values: ValuesOf(map[string]expr.Value{"RC": expr.Int(0)})},
		{Type: RecStartedActivity, Instance: "i", Path: "A", Iter: 0}, // finished -> dropped
		{Type: RecFinishedActivity, Instance: "i", Path: "A", Iter: 0, Values: ValuesOf(map[string]expr.Value{"RC": expr.Int(0)})},
		{Type: RecStartedActivity, Instance: "i", Path: "B", Iter: 0}, // finished -> dropped
		{Type: RecFinishedActivity, Instance: "i", Path: "B", Iter: 0, Values: ValuesOf(map[string]expr.Value{"RC": expr.Int(1)})},
		{Type: RecStartedActivity, Instance: "i", Path: "B", Iter: 1}, // half-executed -> kept
	}
	out := Compact(recs)
	if len(out) != 4 {
		t.Fatalf("compacted to %d records, want 4: %+v", len(out), out)
	}
	if out[0].Type != RecCreated {
		t.Fatal("created record lost")
	}
	var keptHalf bool
	for _, r := range out {
		if r.Type == RecStartedActivity {
			if r.Path != "B" || r.Iter != 1 {
				t.Fatalf("wrong started record survived: %+v", r)
			}
			keptHalf = true
		}
	}
	if !keptHalf {
		t.Fatal("half-executed witness dropped")
	}
	// Input unchanged.
	if len(recs) != 6 {
		t.Fatal("input mutated")
	}
}

func TestCompactEmptyAndNoOp(t *testing.T) {
	if got := Compact(nil); len(got) != 0 {
		t.Fatal("nil input")
	}
	recs := []Record{
		{Type: RecCreated, Instance: "i", Process: "P"},
		{Type: RecStartedActivity, Instance: "i", Path: "A", Iter: 0},
	}
	out := Compact(recs)
	if len(out) != 2 {
		t.Fatalf("nothing should be dropped: %+v", out)
	}
}
