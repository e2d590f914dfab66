package saga

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/rm"
	"repro/internal/txdb"
)

func travelSpec() *Spec {
	return &Spec{Name: "travel", Steps: []Step{
		{Name: "T1", Compensation: "C1"},
		{Name: "T2", Compensation: "C2"},
		{Name: "T3", Compensation: "C3"},
	}}
}

// bindPure binds every subtransaction to a storage-free unit.
func bindPure(spec *Spec) Binding {
	b := Binding{}
	for _, st := range spec.Steps {
		b[st.Name] = rm.Subtransaction{Name: st.Name}
		b[st.Compensation] = rm.Subtransaction{Name: st.Compensation}
	}
	return b
}

func historyString(rec *rm.Recorder) string {
	var parts []string
	for _, e := range rec.Events() {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, " ")
}

// violates asserts that err is the violation of constraint.
func violates(t *testing.T, what string, err error, constraint string) {
	t.Helper()
	var v *atm.Violation
	if !errors.As(err, &v) || v.Constraint != constraint {
		t.Errorf("%s: got %v, want a violation of %s", what, err, constraint)
	}
}

func TestValidate(t *testing.T) {
	if err := travelSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		constraint string
		spec       *Spec
	}{
		{"saga.named", &Spec{}},
		{"saga.has-steps", &Spec{Name: "s"}},
		{"saga.step-named", &Spec{Name: "s", Steps: []Step{{Name: "", Compensation: "c"}}}},
		{"saga.compensated", &Spec{Name: "s", Steps: []Step{{Name: "t", Compensation: ""}}}},
		{"saga.unique-names", &Spec{Name: "s", Steps: []Step{{Name: "t", Compensation: "t"}}}},
		{"saga.unique-names", &Spec{Name: "s", Steps: []Step{{Name: "t", Compensation: "c"}, {Name: "t", Compensation: "c2"}}}},
	}
	for i, c := range bad {
		violates(t, fmt.Sprintf("case %d", i), c.spec.Validate(), c.constraint)
	}
}

func TestBindMissing(t *testing.T) {
	spec := travelSpec()
	b := bindPure(spec)
	delete(b, "C2")
	if err := spec.Bind(b); err == nil {
		t.Fatal("missing compensation binding accepted")
	}
	delete(b, "T1")
	if err := spec.Bind(b); err == nil {
		t.Fatal("missing step binding accepted")
	}
}

func TestExecuteAllCommit(t *testing.T) {
	spec := travelSpec()
	rec := &rm.Recorder{}
	ex := &Executor{Decider: rm.NewInjector()}
	res, err := ex.Execute(spec, bindPure(spec), rec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || res.AbortedAt != 0 {
		t.Fatalf("result: %+v", res)
	}
	if got := historyString(rec); got != "T1:commit T2:commit T3:commit" {
		t.Fatalf("history: %s", got)
	}
	if err := CheckGuarantee(spec, rec.Events()); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteAbortEachPosition(t *testing.T) {
	// The E1 sweep in miniature: abort at each step j+1 and require the
	// history T1..Tj, T(j+1):abort, Cj..C1.
	for abortAt := 1; abortAt <= 3; abortAt++ {
		spec := travelSpec()
		inj := rm.NewInjector()
		inj.AbortAlways(fmt.Sprintf("T%d", abortAt))
		rec := &rm.Recorder{}
		ex := &Executor{Decider: inj}
		res, err := ex.Execute(spec, bindPure(spec), rec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed || res.AbortedAt != abortAt {
			t.Fatalf("abortAt=%d: result %+v", abortAt, res)
		}
		if err := CheckGuarantee(spec, rec.Events()); err != nil {
			t.Fatalf("abortAt=%d: %v\nhistory: %s", abortAt, err, historyString(rec))
		}
		// Spot check the exact shape for abort at 2: T1 C1 around the abort.
		if abortAt == 2 {
			want := "T1:commit T2:abort C1:commit"
			if got := historyString(rec); got != want {
				t.Fatalf("history = %s, want %s", got, want)
			}
		}
	}
}

func TestCompensationRetries(t *testing.T) {
	spec := travelSpec()
	inj := rm.NewInjector()
	inj.AbortAlways("T3")
	inj.AbortN("C2", 2) // compensation is retriable: fails twice, then commits
	rec := &rm.Recorder{}
	ex := &Executor{Decider: inj}
	res, err := ex.Execute(spec, bindPure(spec), rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed || res.AbortedAt != 3 {
		t.Fatalf("result: %+v", res)
	}
	want := "T1:commit T2:commit T3:abort C2:abort C2:abort C2:commit C1:commit"
	if got := historyString(rec); got != want {
		t.Fatalf("history = %s, want %s", got, want)
	}
	if err := CheckGuarantee(spec, rec.Events()); err != nil {
		t.Fatal(err)
	}
}

func TestCompensationRetryBound(t *testing.T) {
	spec := travelSpec()
	inj := rm.NewInjector()
	inj.AbortAlways("T2")
	inj.AbortAlways("C1")
	ex := &Executor{Decider: inj, MaxCompensationRetries: 5}
	if _, err := ex.Execute(spec, bindPure(spec), &rm.Recorder{}); err == nil {
		t.Fatal("unbounded compensation loop not surfaced")
	}
}

func TestCompensateCompletedSaga(t *testing.T) {
	spec := travelSpec()
	rec := &rm.Recorder{}
	ex := &Executor{Decider: rm.NewInjector()}
	if _, err := ex.Execute(spec, bindPure(spec), rec); err != nil {
		t.Fatal(err)
	}
	if err := ex.Compensate(spec, bindPure(spec), rec); err != nil {
		t.Fatal(err)
	}
	want := "T1:commit T2:commit T3:commit C3:commit C2:commit C1:commit"
	if got := historyString(rec); got != want {
		t.Fatalf("history = %s, want %s", got, want)
	}
}

func TestExecuteAgainstDatabases(t *testing.T) {
	// Steps write to real local databases; compensation must leave them
	// clean when the saga aborts.
	mb := txdb.NewMultibase("airline", "hotel", "car")
	spec := travelSpec()
	stores := map[string]*txdb.Store{
		"T1": mb.Store("airline"), "T2": mb.Store("hotel"), "T3": mb.Store("car"),
	}
	b := Binding{}
	for _, st := range spec.Steps {
		store := stores[st.Name]
		name := st.Name
		b[st.Name] = rm.Subtransaction{Name: st.Name, Store: store, Work: func(tx *txdb.Tx) error {
			return tx.Put("booking", name)
		}}
		b[st.Compensation] = rm.Subtransaction{Name: st.Compensation, Store: store, Work: func(tx *txdb.Tx) error {
			return tx.Delete("booking")
		}}
	}
	inj := rm.NewInjector()
	inj.AbortAlways("T3")
	ex := &Executor{Decider: inj}
	rec := &rm.Recorder{}
	res, err := ex.Execute(spec, b, rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("saga should have aborted")
	}
	for _, s := range []string{"airline", "hotel", "car"} {
		if mb.Store(s).Len() != 0 {
			t.Errorf("%s still holds a booking after compensation", s)
		}
	}
}

func TestCheckGuaranteeRejects(t *testing.T) {
	spec := travelSpec()
	bad := [][]rm.Event{
		// Out of order forward commits.
		{{Name: "T2", Kind: rm.EvCommit}},
		// Missing compensation.
		{{Name: "T1", Kind: rm.EvCommit}, {Name: "T2", Kind: rm.EvAbort}},
		// Compensation in wrong order.
		{{Name: "T1", Kind: rm.EvCommit}, {Name: "T2", Kind: rm.EvCommit},
			{Name: "T3", Kind: rm.EvAbort},
			{Name: "C1", Kind: rm.EvCommit}, {Name: "C2", Kind: rm.EvCommit}},
		// Incomplete forward execution without abort.
		{{Name: "T1", Kind: rm.EvCommit}},
		// Trailing garbage after full commit.
		{{Name: "T1", Kind: rm.EvCommit}, {Name: "T2", Kind: rm.EvCommit},
			{Name: "T3", Kind: rm.EvCommit}, {Name: "C1", Kind: rm.EvCommit}},
		// Abort of a step that is not the next one.
		{{Name: "T1", Kind: rm.EvCommit}, {Name: "T3", Kind: rm.EvAbort}},
		// Compensation that never commits.
		{{Name: "T1", Kind: rm.EvCommit}, {Name: "T2", Kind: rm.EvAbort},
			{Name: "C1", Kind: rm.EvAbort}},
	}
	for i, events := range bad {
		if err := CheckGuarantee(spec, events); err == nil {
			t.Errorf("case %d accepted: %v", i, events)
		}
	}
}

// TestPreparedRunsAsExecute prepares the travel saga once and runs it under
// every abort position, twice each: the results and histories are
// Execute's, and a later edit of the spec or the binding does not reach the
// prepared saga. Prepare refuses what Execute refuses, with the same error.
func TestPreparedRunsAsExecute(t *testing.T) {
	spec := travelSpec()
	b := bindPure(spec)
	p, err := Prepare(spec, b)
	if err != nil {
		t.Fatal(err)
	}
	spec.Steps[0].Compensation = "C9"
	b["T2"] = rm.Subtransaction{Name: "X"}
	for abortAt := 0; abortAt <= 3; abortAt++ {
		decider := func() rm.Decider {
			inj := rm.NewInjector()
			if abortAt > 0 {
				inj.AbortAlways(fmt.Sprintf("T%d", abortAt))
			}
			return inj
		}
		wantRec := &rm.Recorder{}
		want, err := (&Executor{Decider: decider()}).Execute(travelSpec(), bindPure(travelSpec()), wantRec)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			rec := &rm.Recorder{}
			got, err := (&Executor{Decider: decider()}).Run(p, rec)
			if err != nil || got != want || historyString(rec) != historyString(wantRec) {
				t.Errorf("abort at %d, run %d: %+v %v %s; Execute %+v %s",
					abortAt, run, got, err, historyString(rec), want, historyString(wantRec))
			}
		}
	}

	unbound := travelSpec()
	missing := bindPure(unbound)
	delete(missing, "C2")
	_, execErr := (&Executor{}).Execute(unbound, missing, nil)
	if _, err := Prepare(unbound, missing); err == nil || execErr == nil || err.Error() != execErr.Error() {
		t.Errorf("Prepare %v, Execute %v", err, execErr)
	}
}
