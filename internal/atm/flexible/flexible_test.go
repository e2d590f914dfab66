package flexible

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/rm"
)

// Fig3 is the paper's Figure 3 flexible transaction: T1, T5, T6
// compensatable; T2, T4, T8 pivot; T3, T7 retriable. Paths (preference
// order): p1 = T1 T2 T4 T5 T6 T8, p2 = T1 T2 T4 T7, p3 = T1 T2 T3.
//
// (The paper's prose lists T3 as both compensatable and retriable — a typo
// it itself acknowledges by noting a subtransaction can be both; the
// execution semantics it describes only use T3's retriability, which is
// what we model.)
func Fig3() *Spec {
	return &Spec{
		Name: "Fig3",
		Subs: []SubSpec{
			{Name: "T1", Compensatable: true, Compensation: "C1"},
			{Name: "T2"}, // pivot
			{Name: "T3", Retriable: true},
			{Name: "T4"}, // pivot
			{Name: "T5", Compensatable: true, Compensation: "C5"},
			{Name: "T6", Compensatable: true, Compensation: "C6"},
			{Name: "T7", Retriable: true},
			{Name: "T8"}, // pivot
		},
		Paths: [][]string{
			{"T1", "T2", "T4", "T5", "T6", "T8"},
			{"T1", "T2", "T4", "T7"},
			{"T1", "T2", "T3"},
		},
	}
}

func bindPure(spec *Spec) Binding {
	b := Binding{}
	for _, sub := range spec.Subs {
		b[sub.Name] = rm.Subtransaction{Name: sub.Name}
		if sub.Compensation != "" {
			b[sub.Compensation] = rm.Subtransaction{Name: sub.Compensation}
		}
	}
	return b
}

func history(rec *rm.Recorder) string {
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

func TestSpecValidate(t *testing.T) {
	if _, err := BuildTrie(Fig3()); err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		constraint string
		mut        func(s *Spec)
	}{
		{"flexible.named", func(s *Spec) { s.Name = "" }},
		{"flexible.has-subs", func(s *Spec) { s.Subs = nil }},
		{"flexible.has-paths", func(s *Spec) { s.Paths = nil }},
		{"flexible.sub-named", func(s *Spec) { s.Subs[0].Name = "" }},
		{"flexible.unique-names", func(s *Spec) { s.Subs = append(s.Subs, SubSpec{Name: "T1"}) }},
		{"flexible.compensation-iff-compensatable", func(s *Spec) { s.Subs[0].Compensation = "" }},
		{"flexible.compensation-iff-compensatable", func(s *Spec) { s.Subs[1].Compensation = "Cx" }},
		{"flexible.unique-names", func(s *Spec) { s.Subs = append(s.Subs, SubSpec{Name: "C1"}) }},
		{"flexible.paths-nonempty", func(s *Spec) { s.Paths = append(s.Paths, []string{}) }},
		{"flexible.paths-declared", func(s *Spec) { s.Paths = append(s.Paths, []string{"ghost"}) }},
		{"flexible.path-no-repeat", func(s *Spec) { s.Paths = append(s.Paths, []string{"T1", "T1"}) }},
		{"flexible.no-prefix-path", func(s *Spec) { s.Paths = append(s.Paths, []string{"T1", "T2"}) }},
		{"flexible.subs-used", func(s *Spec) { s.Subs = append(s.Subs, SubSpec{Name: "unused", Retriable: true}) }},
	}
	for i, m := range mutations {
		s := Fig3()
		m.mut(s)
		_, err := BuildTrie(s)
		violates(t, fmt.Sprintf("mutation %d", i), err, m.constraint)
	}
}

func TestSubKindAndPivot(t *testing.T) {
	spec := Fig3()
	if !spec.Sub("T2").Pivot() || spec.Sub("T1").Pivot() || spec.Sub("T3").Pivot() {
		t.Fatal("pivot detection wrong")
	}
	kinds := map[string]string{
		"T1": "compensatable", "T2": "pivot", "T3": "retriable",
	}
	for n, want := range kinds {
		if got := spec.Sub(n).Kind(); got != want {
			t.Errorf("Kind(%s) = %s, want %s", n, got, want)
		}
	}
	both := SubSpec{Name: "x", Compensatable: true, Retriable: true, Compensation: "cx"}
	if both.Kind() != "compensatable+retriable" {
		t.Error("both kind")
	}
	if spec.Sub("nope") != nil {
		t.Error("phantom sub")
	}
}

func TestTrieShape(t *testing.T) {
	trie, err := BuildTrie(Fig3())
	if err != nil {
		t.Fatal(err)
	}
	root := trie.Root
	if len(root.Children) != 1 || root.Children[0].Sub != "T1" {
		t.Fatalf("root children: %+v", root.Children)
	}
	t1 := root.Children[0]
	t2 := t1.Children[0]
	if len(t2.Children) != 2 || t2.Children[0].Sub != "T4" || t2.Children[1].Sub != "T3" {
		t.Fatalf("T2 children wrong (preference order): %v", subNames(t2.Children))
	}
	t4 := t2.Children[0]
	if len(t4.Children) != 2 || t4.Children[0].Sub != "T5" || t4.Children[1].Sub != "T7" {
		t.Fatalf("T4 children wrong: %v", subNames(t4.Children))
	}
	if got := len(trie.Nodes()); got != 9 { // root + 8 subs
		t.Fatalf("nodes = %d", got)
	}
	// pathTo reconstructs the chain.
	t8 := t4.Children[0].Children[0].Children[0]
	if got := strings.Join(pathTo(t8), " "); got != "T1 T2 T4 T5 T6 T8" {
		t.Fatalf("pathTo(T8) = %s", got)
	}
}

func subNames(ns []*Node) []string {
	var out []string
	for _, n := range ns {
		out = append(out, n.Sub)
	}
	return out
}

func TestFallback(t *testing.T) {
	trie, err := BuildTrie(Fig3())
	if err != nil {
		t.Fatal(err)
	}
	find := func(name string) *Node {
		for _, n := range trie.Nodes() {
			if n.Sub == name {
				return n
			}
		}
		t.Fatalf("node %s not found", name)
		return nil
	}
	cases := []struct {
		fail string
		alt  string // "" = global abort
		comp string // space-joined compensated subs, nearest first
	}{
		{"T1", "", ""},
		{"T2", "", "T1"},
		{"T4", "T3", ""},
		{"T5", "T7", ""},
		{"T6", "T7", "T5"},
		{"T8", "T7", "T6 T5"},
	}
	for _, c := range cases {
		alt, comp := Fallback(find(c.fail))
		gotAlt := ""
		if alt != nil {
			gotAlt = alt.Sub
		}
		if gotAlt != c.alt {
			t.Errorf("Fallback(%s) alt = %q, want %q", c.fail, gotAlt, c.alt)
		}
		if got := strings.Join(subNames(comp), " "); got != c.comp {
			t.Errorf("Fallback(%s) comp = %q, want %q", c.fail, got, c.comp)
		}
	}
}

func TestWellFormed(t *testing.T) {
	if _, err := BuildTrie(Fig3()); err != nil {
		t.Fatalf("Fig3 should be well-formed: %v", err)
	}
	// Make T5 non-compensatable: T8's abort would need to undo it.
	bad := Fig3()
	bad.Subs[4] = SubSpec{Name: "T5"} // pivot now
	_, err := BuildTrie(bad)
	violates(t, "T5 a pivot", err, "flexible.well-formed")
	// A lone pivot with no alternatives is fine (clean abort, nothing
	// committed before it).
	lone := &Spec{Name: "lone", Subs: []SubSpec{{Name: "P"}}, Paths: [][]string{{"P"}}}
	if _, err := BuildTrie(lone); err != nil {
		t.Fatalf("lone pivot: %v", err)
	}
	// Two pivots in sequence with no alternative: the second pivot's abort
	// would require compensating the first — ill-formed.
	two := &Spec{Name: "two", Subs: []SubSpec{{Name: "P1"}, {Name: "P2"}}, Paths: [][]string{{"P1", "P2"}}}
	_, err = BuildTrie(two)
	violates(t, "two sequential pivots", err, "flexible.well-formed")
}

// appendix scenarios: inject each abort of the appendix and compare the
// observable history with the paper's described behaviour.
func TestFig3AppendixScenarios(t *testing.T) {
	cases := []struct {
		name      string
		inject    func(inj *rm.Injector)
		committed bool
		path      string
		history   string
	}{
		{
			name:      "all_commit_p1",
			inject:    func(*rm.Injector) {},
			committed: true,
			path:      "T1 T2 T4 T5 T6 T8",
			history:   "T1:commit T2:commit T4:commit T5:commit T6:commit T8:commit",
		},
		{
			name:      "T1_aborts_clean_abort",
			inject:    func(i *rm.Injector) { i.AbortAlways("T1") },
			committed: false,
			history:   "T1:abort",
		},
		{
			name:      "T2_aborts_compensate_T1",
			inject:    func(i *rm.Injector) { i.AbortAlways("T2") },
			committed: false,
			history:   "T1:commit T2:abort C1:commit",
		},
		{
			name:      "T4_aborts_T3_retried",
			inject:    func(i *rm.Injector) { i.AbortAlways("T4"); i.AbortN("T3", 2) },
			committed: true,
			path:      "T1 T2 T3",
			history:   "T1:commit T2:commit T4:abort T3:abort T3:abort T3:commit",
		},
		{
			name:      "T5_aborts_T7",
			inject:    func(i *rm.Injector) { i.AbortAlways("T5") },
			committed: true,
			path:      "T1 T2 T4 T7",
			history:   "T1:commit T2:commit T4:commit T5:abort T7:commit",
		},
		{
			name:      "T6_aborts_compensate_T5_then_T7",
			inject:    func(i *rm.Injector) { i.AbortAlways("T6") },
			committed: true,
			path:      "T1 T2 T4 T7",
			history:   "T1:commit T2:commit T4:commit T5:commit T6:abort C5:commit T7:commit",
		},
		{
			name:      "T8_aborts_compensate_T6_T5_then_T7",
			inject:    func(i *rm.Injector) { i.AbortAlways("T8") },
			committed: true,
			path:      "T1 T2 T4 T7",
			history:   "T1:commit T2:commit T4:commit T5:commit T6:commit T8:abort C6:commit C5:commit T7:commit",
		},
		{
			name:      "T8_aborts_T7_retried",
			inject:    func(i *rm.Injector) { i.AbortAlways("T8"); i.AbortN("T7", 1) },
			committed: true,
			path:      "T1 T2 T4 T7",
			history:   "T1:commit T2:commit T4:commit T5:commit T6:commit T8:abort C6:commit C5:commit T7:abort T7:commit",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := Fig3()
			inj := rm.NewInjector()
			c.inject(inj)
			rec := &rm.Recorder{}
			ex := &Executor{Decider: inj}
			res, err := ex.Execute(spec, bindPure(spec), rec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed != c.committed {
				t.Fatalf("committed = %v, want %v", res.Committed, c.committed)
			}
			if got := strings.Join(res.Path, " "); got != c.path {
				t.Fatalf("path = %q, want %q", got, c.path)
			}
			if got := history(rec); got != c.history {
				t.Fatalf("history = %s\nwant      %s", got, c.history)
			}
		})
	}
}

func TestExecutorRetriableBound(t *testing.T) {
	spec := Fig3()
	inj := rm.NewInjector()
	inj.AbortAlways("T4")
	inj.AbortAlways("T3") // retriable that never commits: scripting mistake
	ex := &Executor{Decider: inj, MaxRetries: 10}
	if _, err := ex.Execute(spec, bindPure(spec), &rm.Recorder{}); err == nil {
		t.Fatal("unbounded retry not surfaced")
	}
}

func TestExecutorCompensationBound(t *testing.T) {
	spec := Fig3()
	inj := rm.NewInjector()
	inj.AbortAlways("T2")
	inj.AbortAlways("C1")
	ex := &Executor{Decider: inj, MaxRetries: 10}
	if _, err := ex.Execute(spec, bindPure(spec), &rm.Recorder{}); err == nil {
		t.Fatal("unbounded compensation not surfaced")
	}
}

func TestBindMissing(t *testing.T) {
	spec := Fig3()
	b := bindPure(spec)
	delete(b, "C5")
	if err := spec.Bind(b); err == nil {
		t.Fatal("missing compensation binding accepted")
	}
	delete(b, "T2")
	if err := spec.Bind(b); err == nil {
		t.Fatal("missing sub binding accepted")
	}
}

func TestCheckHistoryRejects(t *testing.T) {
	ev := func(name string, kind rm.EventKind) rm.Event { return rm.Event{Name: name, Kind: kind} }
	c, a := rm.EvCommit, rm.EvAbort
	bad := [][]rm.Event{
		// unknown subject.
		{ev("T1", c), ev("zz", c)},
		// committed twice.
		{ev("T1", c), ev("T1", c)},
		// compensation of a subtransaction that is not the latest commit.
		{ev("T1", c), ev("T2", c), ev("C1", c)},
		// compensation of a subtransaction that never committed.
		{ev("C5", c)},
		// ends committed on no declared path.
		{ev("T1", c), ev("T2", c), ev("T4", a)},
		// a pivot left committed after compensation around it.
		{ev("T1", c), ev("T2", c), ev("T4", c), ev("T5", c), ev("C5", c), ev("T3", c)},
	}
	for i, events := range bad {
		if err := CheckHistory(Fig3(), events); err == nil {
			t.Errorf("case %d accepted: %v", i, events)
		}
	}
	// The appendix's T8 scenario: C6 and C5 (C5 retried once) undo the
	// latest commits, and T7 completes p2.
	ok := []rm.Event{ev("T1", c), ev("T2", c), ev("T4", c), ev("T5", c), ev("T6", c), ev("T8", a),
		ev("C6", c), ev("C5", a), ev("C5", c), ev("T7", a), ev("T7", c)}
	if err := CheckHistory(Fig3(), ok); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedRunsAsExecute prepares Figure 3 once and runs it under each
// single abort, twice each: the results and histories are Execute's.
// Prepare refuses what Execute refuses, with the same error.
func TestPreparedRunsAsExecute(t *testing.T) {
	spec := Fig3()
	p, err := Prepare(spec, bindPure(spec))
	if err != nil {
		t.Fatal(err)
	}
	for _, abort := range []string{"", "T1", "T2", "T4", "T5", "T6", "T8"} {
		decider := func() rm.Decider {
			inj := rm.NewInjector()
			if abort != "" {
				inj.AbortAlways(abort)
			}
			return inj
		}
		wantRec := &rm.Recorder{}
		want, err := (&Executor{Decider: decider()}).Execute(Fig3(), bindPure(Fig3()), wantRec)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			rec := &rm.Recorder{}
			got, err := (&Executor{Decider: decider()}).Run(p, rec)
			if err != nil || !reflect.DeepEqual(got, want) || history(rec) != history(wantRec) {
				t.Errorf("abort %q, run %d: %+v %v %s; Execute %+v %s",
					abort, run, got, err, history(rec), want, history(wantRec))
			}
		}
	}

	missing := bindPure(spec)
	delete(missing, "C5")
	_, execErr := (&Executor{}).Execute(spec, missing, nil)
	if _, err := Prepare(spec, missing); err == nil || execErr == nil || err.Error() != execErr.Error() {
		t.Errorf("Prepare %v, Execute %v", err, execErr)
	}
}
