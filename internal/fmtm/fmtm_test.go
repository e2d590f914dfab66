package fmtm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/atm/flexible"
	"repro/internal/atm/saga"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/rm"
)

// nStepSaga builds T1..Tn with compensations C1..Cn.
func nStepSaga(name string, n int) *saga.Spec {
	s := &saga.Spec{Name: name}
	for i := 1; i <= n; i++ {
		s.Steps = append(s.Steps, saga.Step{
			Name: fmt.Sprintf("T%d", i), Compensation: fmt.Sprintf("C%d", i),
		})
	}
	return s
}

func fig3Spec() *flexible.Spec {
	return &flexible.Spec{
		Name: "Fig3",
		Subs: []flexible.SubSpec{
			{Name: "T1", Compensatable: true, Compensation: "C1"},
			{Name: "T2"},
			{Name: "T3", Retriable: true},
			{Name: "T4"},
			{Name: "T5", Compensatable: true, Compensation: "C5"},
			{Name: "T6", Compensatable: true, Compensation: "C6"},
			{Name: "T7", Retriable: true},
			{Name: "T8"},
		},
		Paths: [][]string{
			{"T1", "T2", "T4", "T5", "T6", "T8"},
			{"T1", "T2", "T4", "T7"},
			{"T1", "T2", "T3"},
		},
	}
}

func historyString(rec *rm.Recorder) string {
	var parts []string
	for _, e := range rec.Events() {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, " ")
}

// runSagaWorkflow translates the saga and executes the generated process
// with injector-driven programs, returning the instance and history.
func runSagaWorkflow(t *testing.T, spec *saga.Spec, dec rm.Decider, opts SagaOptions) (*engine.Instance, *rm.Recorder) {
	t.Helper()
	e := engine.New()
	if err := RegisterRuntime(e); err != nil {
		t.Fatal(err)
	}
	rec := &rm.Recorder{}
	if err := RegisterSaga(e, spec, PureSagaBinding(spec), dec, rec); err != nil {
		t.Fatal(err)
	}
	p, err := TranslateSaga(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance(spec.Name, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if !inst.Finished() {
		t.Fatal("generated saga process did not finish")
	}
	return inst, rec
}

func TestSagaTranslationStructure(t *testing.T) {
	spec := nStepSaga("travel", 3)
	p, err := TranslateSaga(spec, SagaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fwd := p.Graph.Activity("Forward")
	comp := p.Graph.Activity("Compensation")
	if fwd == nil || comp == nil || fwd.Kind != model.KindBlock || comp.Kind != model.KindBlock {
		t.Fatal("Figure 2 blocks missing")
	}
	if len(fwd.Block.Activities) != 3 || len(fwd.Block.Control) != 2 {
		t.Fatalf("forward block shape: %d activities, %d connectors",
			len(fwd.Block.Activities), len(fwd.Block.Control))
	}
	if len(comp.Block.Activities) != 4 { // NOP + 3 compensations
		t.Fatalf("compensation block activities: %d", len(comp.Block.Activities))
	}
	// NOP has a connector to every compensation (3) plus the reverse chain (2).
	if len(comp.Block.Control) != 5 {
		t.Fatalf("compensation block connectors: %d", len(comp.Block.Control))
	}
	// Compensations are retriable and or-joined.
	c1 := comp.Block.Activity("C1")
	if c1.Exit == nil || c1.Exit.String() != "RC = 0" || c1.Join != model.JoinOr {
		t.Fatalf("C1 = %+v", c1)
	}
	// Reserved name rejection.
	badSpec := &saga.Spec{Name: "x", Steps: []saga.Step{{Name: "NOP", Compensation: "c"}}}
	if _, err := TranslateSaga(badSpec, SagaOptions{}); err == nil {
		t.Fatal("reserved step name accepted")
	}
}

// TestSagaTranslationGuarantee: the workflow encoding of a saga produces,
// for every abort point, exactly the history the saga guarantee requires,
// and its output records the aborted step. (Equality with the native
// executor is the four-way check of experiment E1, internal/sim.)
func TestSagaTranslationGuarantee(t *testing.T) {
	for _, n := range []int{1, 3, 5, 10} {
		for abortAt := 0; abortAt <= n; abortAt++ { // 0 = no abort
			name := fmt.Sprintf("n%d_abort%d", n, abortAt)
			t.Run(name, func(t *testing.T) {
				spec := nStepSaga("s", n)
				inj := rm.NewInjector()
				if abortAt > 0 {
					inj.AbortAlways(fmt.Sprintf("T%d", abortAt))
					// One transient compensation failure to exercise the
					// retriable exit condition.
					if abortAt > 1 {
						inj.AbortN(fmt.Sprintf("C%d", abortAt-1), 1)
					}
				}
				inst, rec := runSagaWorkflow(t, spec, inj, SagaOptions{})
				if err := saga.CheckGuarantee(spec, rec.Events()); err != nil {
					t.Fatalf("workflow history violates the saga guarantee: %v\nhistory: %s",
						err, historyString(rec))
				}
				// The generated process's output records the states.
				out := inst.Output()
				if abortAt == 0 {
					if out.MustGet(stateMember(n)).AsInt() != 0 {
						t.Fatalf("State_%d = %v after full commit", n, out.MustGet(stateMember(n)))
					}
				} else if out.MustGet(stateMember(abortAt)).AsInt() != 1 {
					t.Fatalf("State_%d = %v, want 1 (aborted)", abortAt, out.MustGet(stateMember(abortAt)))
				}
			})
		}
	}
}

func TestSagaCompensateCompleted(t *testing.T) {
	spec := nStepSaga("s", 3)
	inst, rec := runSagaWorkflow(t, spec, rm.NewInjector(), SagaOptions{CompensateCompleted: true})
	want := "T1:commit T2:commit T3:commit C3:commit C2:commit C1:commit"
	if got := historyString(rec); got != want {
		t.Fatalf("history = %s, want %s", got, want)
	}
	_ = inst
}

// runFlexibleWorkflow translates the flexible transaction and executes it.
func runFlexibleWorkflow(t *testing.T, spec *flexible.Spec, dec rm.Decider) (*engine.Instance, *rm.Recorder) {
	t.Helper()
	e := engine.New()
	if err := RegisterRuntime(e); err != nil {
		t.Fatal(err)
	}
	rec := &rm.Recorder{}
	if err := RegisterFlexible(e, spec, PureFlexibleBinding(spec), dec, rec); err != nil {
		t.Fatal(err)
	}
	p, err := TranslateFlexible(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProcess(p); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance(spec.Name, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if !inst.Finished() {
		t.Fatal("generated flexible process did not finish")
	}
	return inst, rec
}

func TestFlexibleTranslationStructure(t *testing.T) {
	spec := fig3Spec()

	p, err := TranslateFlexible(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4 shape: Blk1 = [T1], T2, T4, Blk2 = [T5 T6], T8, T7, T3 plus
	// two compensation blocks.
	var blocks, comps, acts int
	for _, a := range p.Activities {
		switch {
		case a.Kind == model.KindBlock && strings.HasSuffix(a.Name, "_comp"):
			comps++
		case a.Kind == model.KindBlock:
			blocks++
		default:
			acts++
		}
	}
	if blocks != 2 || comps != 2 || acts != 5 {
		t.Fatalf("shape: %d forward blocks, %d compensation blocks, %d activities", blocks, comps, acts)
	}
	// T3 and T7 carry the retriable exit condition (rule 4).
	for _, n := range []string{"T3", "T7"} {
		a := p.Graph.Activity(n)
		if a == nil || a.Exit == nil || a.Exit.String() != "RC = 0" {
			t.Fatalf("retriable %s: %+v", n, a)
		}
	}
	// T2 and T4 branch on commit/abort (rule 3): T4 has a success edge and
	// a failure edge.
	outs := p.Outgoing("T4")
	if len(outs) != 2 {
		t.Fatalf("T4 outgoing = %d", len(outs))
	}
	// Rule 5: T5 and T6 form one compensatable block, and T8 stands alone.
	var run []string
	for _, a := range p.Activities {
		if a.Kind == model.KindBlock && a.Block.Activity("T5") != nil {
			for _, b := range a.Block.Activities {
				run = append(run, b.Name)
			}
		}
	}
	if got := strings.Join(run, " "); got != "T5 T6" {
		t.Fatalf("block of T5 = [%s], want [T5 T6]", got)
	}
	if a := p.Graph.Activity("T8"); a == nil || a.Kind != model.KindProgram {
		t.Fatalf("T8 = %+v, want a standalone program activity", a)
	}
}

// TestFlexibleFig3: every appendix scenario of the paper's Figure 3/4
// example, executed through the generated workflow process, yields the
// appendix's history and outcome. (Equality with the native executor is
// the four-way check of experiment E2, internal/sim.)
func TestFlexibleFig3(t *testing.T) {
	cases := []struct {
		name    string
		inject  func(*rm.Injector)
		result  int64 // expected Result member: 0 commit, 1 terminal abort, -1 dead
		history string
	}{
		{"all_commit_p1", func(*rm.Injector) {}, 0,
			"T1:commit T2:commit T4:commit T5:commit T6:commit T8:commit"},
		{"T1_aborts", func(i *rm.Injector) { i.AbortAlways("T1") }, -1,
			"T1:abort"},
		{"T2_aborts", func(i *rm.Injector) { i.AbortAlways("T2") }, -1,
			"T1:commit T2:abort C1:commit"},
		{"T4_aborts_T3", func(i *rm.Injector) { i.AbortAlways("T4"); i.AbortN("T3", 2) }, 0,
			"T1:commit T2:commit T4:abort T3:abort T3:abort T3:commit"},
		{"T5_aborts_T7", func(i *rm.Injector) { i.AbortAlways("T5") }, 0,
			"T1:commit T2:commit T4:commit T5:abort T7:commit"},
		{"T6_aborts_C5_T7", func(i *rm.Injector) { i.AbortAlways("T6") }, 0,
			"T1:commit T2:commit T4:commit T5:commit T6:abort C5:commit T7:commit"},
		{"T8_aborts_C6_C5_T7", func(i *rm.Injector) { i.AbortAlways("T8") }, 0,
			"T1:commit T2:commit T4:commit T5:commit T6:commit T8:abort C6:commit C5:commit T7:commit"},
		{"T8_aborts_T7_retries", func(i *rm.Injector) { i.AbortAlways("T8"); i.AbortN("T7", 1) }, 0,
			"T1:commit T2:commit T4:commit T5:commit T6:commit T8:abort C6:commit C5:commit T7:abort T7:commit"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := fig3Spec()

			inj := rm.NewInjector()
			c.inject(inj)
			inst, rec := runFlexibleWorkflow(t, spec, inj)
			if got := historyString(rec); got != c.history {
				t.Fatalf("workflow history:\n got %s\nwant %s", got, c.history)
			}
			if got := inst.Output().MustGet("Result").AsInt(); got != c.result {
				t.Fatalf("Result = %d, want %d", got, c.result)
			}
		})
	}
}
