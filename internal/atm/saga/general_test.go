package saga

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rm"
)

// diamondSpec: a -> (b, c) -> d, the smallest genuinely parallel saga.
func diamondSpec() *GeneralSpec {
	return &GeneralSpec{
		Name: "diamond",
		Steps: []Step{
			{Name: "a", Compensation: "ca"},
			{Name: "b", Compensation: "cb"},
			{Name: "c", Compensation: "cc"},
			{Name: "d", Compensation: "cd"},
		},
		Deps: map[string][]string{
			"b": {"a"}, "c": {"a"}, "d": {"b", "c"},
		},
	}
}

func bindGeneral(spec *GeneralSpec) Binding {
	b := Binding{}
	for _, st := range spec.Steps {
		b[st.Name] = rm.Subtransaction{Name: st.Name}
		b[st.Compensation] = rm.Subtransaction{Name: st.Compensation}
	}
	return b
}

func TestGeneralValidate(t *testing.T) {
	if err := diamondSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		constraint string
		mut        func(s *GeneralSpec)
	}{
		{"saga.deps-declared", func(s *GeneralSpec) { s.Deps["ghost"] = []string{"a"} }},
		{"saga.deps-declared", func(s *GeneralSpec) { s.Deps["b"] = []string{"ghost"} }},
		{"saga.no-self-dependency", func(s *GeneralSpec) { s.Deps["b"] = []string{"b"} }},
		{"saga.no-repeated-dependency", func(s *GeneralSpec) { s.Deps["b"] = []string{"a", "a"} }},
		{"saga.acyclic", func(s *GeneralSpec) { s.Deps["a"] = []string{"d"} }},
		{"saga.compensated", func(s *GeneralSpec) { s.Steps[0].Compensation = "" }},
	}
	for i, m := range mutations {
		s := diamondSpec()
		m.mut(s)
		violates(t, fmt.Sprintf("mutation %d", i), s.Validate(), m.constraint)
	}
}

func TestGeneralLinear(t *testing.T) {
	lin := &GeneralSpec{
		Name:  "lin",
		Steps: []Step{{Name: "a", Compensation: "ca"}, {Name: "b", Compensation: "cb"}},
		Deps:  map[string][]string{"b": {"a"}},
	}
	if !lin.Linear() {
		t.Error("chain not recognized as linear")
	}
	if diamondSpec().Linear() {
		t.Error("diamond recognized as linear")
	}
}

func TestExecuteGeneralAllCommit(t *testing.T) {
	spec := diamondSpec()
	rec := &rm.Recorder{}
	ex := &Executor{Decider: rm.NewInjector()}
	res, err := ex.ExecuteGeneral(spec, bindGeneral(spec), rec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("result: %+v", res)
	}
	if err := CheckGeneralGuarantee(spec, rec.Events()); err != nil {
		t.Fatal(err)
	}
	// Deterministic order: a b c d.
	got := historyOf(rec)
	if got != "a:commit b:commit c:commit d:commit" {
		t.Fatalf("history: %s", got)
	}
}

func historyOf(rec *rm.Recorder) string {
	var parts []string
	for _, e := range rec.Events() {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, " ")
}

func TestExecuteGeneralAbort(t *testing.T) {
	for _, victim := range []string{"a", "b", "c", "d"} {
		spec := diamondSpec()
		inj := rm.NewInjector()
		inj.AbortAlways(victim)
		rec := &rm.Recorder{}
		ex := &Executor{Decider: inj}
		res, err := ex.ExecuteGeneral(spec, bindGeneral(spec), rec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed || len(res.Aborted) != 1 || res.Aborted[0] != victim {
			t.Fatalf("victim %s: result %+v", victim, res)
		}
		if err := CheckGeneralGuarantee(spec, rec.Events()); err != nil {
			t.Fatalf("victim %s: %v\nhistory: %s", victim, err, historyOf(rec))
		}
	}
	// Abort of d compensates c, b, a in reverse completion order.
	spec := diamondSpec()
	inj := rm.NewInjector()
	inj.AbortAlways("d")
	rec := &rm.Recorder{}
	ex := &Executor{Decider: inj}
	if _, err := ex.ExecuteGeneral(spec, bindGeneral(spec), rec); err != nil {
		t.Fatal(err)
	}
	want := "a:commit b:commit c:commit d:abort cc:commit cb:commit ca:commit"
	if got := historyOf(rec); got != want {
		t.Fatalf("history = %s, want %s", got, want)
	}
}

func TestCheckGeneralGuaranteeRejects(t *testing.T) {
	spec := diamondSpec()
	ev := func(name string, kind rm.EventKind) rm.Event { return rm.Event{Name: name, Kind: kind} }
	bad := [][]rm.Event{
		// b before its prerequisite a.
		{ev("b", rm.EvCommit)},
		// step executed twice.
		{ev("a", rm.EvCommit), ev("a", rm.EvCommit)},
		// committed but never compensated after abort.
		{ev("a", rm.EvCommit), ev("b", rm.EvAbort)},
		// compensation of a step that never committed.
		{ev("a", rm.EvCommit), ev("b", rm.EvAbort), ev("cb", rm.EvCommit)},
		// compensation order violated: a compensated before its committed
		// dependent b.
		{ev("a", rm.EvCommit), ev("b", rm.EvCommit), ev("c", rm.EvAbort),
			ev("ca", rm.EvCommit), ev("cb", rm.EvCommit)},
		// forward step after compensation began.
		{ev("a", rm.EvCommit), ev("b", rm.EvAbort), ev("ca", rm.EvCommit), ev("c", rm.EvCommit)},
		// incomplete commit without abort.
		{ev("a", rm.EvCommit), ev("b", rm.EvCommit)},
		// unknown subject.
		{ev("zz", rm.EvCommit)},
		// compensated twice.
		{ev("a", rm.EvCommit), ev("b", rm.EvAbort), ev("ca", rm.EvCommit), ev("ca", rm.EvCommit)},
	}
	for i, events := range bad {
		if err := CheckGeneralGuarantee(spec, events); err == nil {
			t.Errorf("case %d accepted: %v", i, events)
		}
	}
	// A concurrent-legal history: c commits after b aborted (in flight),
	// then compensation of c and a.
	okHist := []rm.Event{
		ev("a", rm.EvCommit), ev("b", rm.EvAbort), ev("c", rm.EvCommit),
		ev("cc", rm.EvAbort), ev("cc", rm.EvCommit), ev("ca", rm.EvCommit),
	}
	if err := CheckGeneralGuarantee(spec, okHist); err != nil {
		t.Fatalf("legal concurrent history rejected: %v", err)
	}
}
