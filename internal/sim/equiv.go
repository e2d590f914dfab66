package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/atm/flexible"
	"repro/internal/atm/gen"
	"repro/internal/atm/saga"
	"repro/internal/engine"
	"repro/internal/fmtm"
	"repro/internal/model"
	"repro/internal/rm"
	"repro/internal/wal"
)

// The equivalence check is the one driver behind E1, E2, E4 and E6: the
// paper's claim that the workflow encodings of §4 *are* the transaction
// models. An experiment is a list of rows, a row a list of cases — a
// specification with an abort plan, from the paper or drawn by gen — and
// every case runs four ways:
//
//  1. natively, on the model's own executor, held to the model's judge
//     (saga.CheckGuarantee, saga.CheckGeneralGuarantee,
//     flexible.CheckHistory);
//  2. translated by FMTM and run by the engine;
//  3. through the Figure 5 pipeline — the case's FMTM text parsed,
//     translated, exported as FDL, re-imported and checked — and run;
//  4. as way 3, killed after every log record (wal.MemLog{CrashAfter}) and
//     recovered.
//
// Ways 2–4 must agree exactly: history, output and trail. Way 2 must agree
// with way 1 on the outcome, and for linear sagas and flexible transactions
// on the history itself. A parallel saga's workflow runs every step whose
// prerequisites committed, where the native executor stops starting steps
// at the first abort; there the workflow's committed steps must be the
// plan's closure instead, and both histories must satisfy the judge.
//
// A subtransaction's outcome is the plan's verdict on its attempt number —
// the activity's exit-condition iteration in the workflow — so a recovered
// run re-decides an attempt the log lost exactly as the crash-free run did.
// A failing case is shrunk (gen.Case.Shrink) and printed as FMTM text.

// equivRow is a list of cases reported as one line.
type equivRow struct {
	name  string
	cases []*gen.Case
	// mutate, when set, rewrites every translated process before it runs:
	// the driver's own test breaks a translation rule with it.
	mutate func(*model.Process)
}

// equivColumns is the one column set of every equivalence report.
var equivColumns = []string{"row", "cases", "committed", "compensated", "crash points", "oracles ok", "history"}

// equiv runs rows as report id.
func equiv(id, title string, rows ...*equivRow) *Report {
	r := &Report{ID: id, Title: title, Columns: equivColumns, Pass: true}
	for _, row := range rows {
		row.run(r)
	}
	return r
}

// run checks every case of the row and adds its line; the first failure
// fails the report as "E<n> <row> seed=<s>: <check>: <err>" followed by
// the shrunk case.
func (row *equivRow) run(r *Report) {
	var committed, compensated, crashes int
	var hist []rm.Event
	ok := true
	for _, c := range row.cases {
		out, err := row.check(c)
		if err != nil {
			ok = false
			if r.Pass {
				r.fail(fmt.Errorf("%s %s seed=%d: %w\nshrunk to:\n%s", r.ID, row.name, c.Seed, err, row.shrink(c).Text()))
			}
			break
		}
		if out.committed {
			committed++
		}
		if out.compensated {
			compensated++
		}
		crashes += out.crashes
		hist = out.history
	}
	shown := "-"
	if len(row.cases) == 1 && ok {
		shown = historyOf(hist)
	}
	r.AddRow(row.name, fmt.Sprint(len(row.cases)), fmt.Sprint(committed), fmt.Sprint(compensated),
		fmt.Sprint(crashes), yesNo(ok), shown)
}

// shrink cuts a failing case down: it moves to the first smaller case that
// still fails until none does.
func (row *equivRow) shrink(c *gen.Case) *gen.Case {
	for again := true; again; {
		again = false
		for _, s := range c.Shrink() {
			if _, err := row.check(s); err != nil {
				c, again = s, true
				break
			}
		}
	}
	return c
}

// caseRun is what a case did, as way 3 ran it.
type caseRun struct {
	committed, compensated bool
	crashes                int
	history                []rm.Event
}

// check runs c four ways and returns the first oracle it breaks as
// "<check>: <err>".
func (row *equivRow) check(c *gen.Case) (caseRun, error) {
	var out caseRun
	fail := func(check string, err error) (caseRun, error) { return out, fmt.Errorf("%s: %w", check, err) }

	// Way 1: native.
	nativeCommitted, nativeRec, err := runNative(c)
	if err == nil {
		err = judge(c, nativeRec.Events())
	}
	if err != nil {
		return fail("native run satisfies the model", err)
	}

	// Way 2: FMTM -> engine.
	p, err := translate(c)
	if err != nil {
		return fail("translates", err)
	}
	_, direct, directRec, _, err := row.runWorkflow(c, p)
	if err == nil {
		err = judge(c, directRec.Events())
	}
	if err != nil {
		return fail("workflow run satisfies the model", err)
	}
	out.committed = workflowCommitted(c, direct.Output())
	if out.committed != nativeCommitted {
		return fail("outcome = native", fmt.Errorf("workflow committed %v, native %v", out.committed, nativeCommitted))
	}
	if err := agreesWithNative(c, directRec.Events(), nativeRec.Events()); err != nil {
		return fail("history = native", err)
	}

	// Way 3: FMTM text -> FDL -> import -> engine.
	res, err := fmtm.Pipeline(c.Text())
	if err != nil {
		return fail("passes the Fig. 5 pipeline", err)
	}
	e, base, rec, log, err := row.runWorkflow(c, res.File.Processes[0])
	if err != nil {
		return fail("imported template runs", err)
	}
	out.history = rec.Events()
	if h, want := historyOf(out.history), historyOf(directRec.Events()); h != want {
		return fail("fdl = direct", fmt.Errorf("history %s, direct %s", h, want))
	}
	if !base.Output().Equal(direct.Output()) || !slices.Equal(base.Trail(), direct.Trail()) {
		return fail("fdl = direct", fmt.Errorf("output %v, direct %v; trail %s", base.Output(), direct.Output(), firstDiff(base.Trail(), direct.Trail())))
	}
	for _, ev := range out.history {
		out.compensated = out.compensated || ev.Kind == rm.EvCommit && c.IsCompensation(ev.Name)
	}

	// Way 4: way 3 killed after every record and recovered.
	for k := 1; k < log.Len(); k++ {
		crashed := &wal.MemLog{CrashAfter: k}
		inst, err := e.CreateInstance(base.ProcessName(), nil, crashed)
		if err == nil {
			err = inst.Start()
		}
		if !errors.Is(err, wal.ErrCrash) {
			return fail(fmt.Sprintf("crash after record %d fired", k), fmt.Errorf("run ended with %v", err))
		}
		got, err := engine.Recover(e, crashed.Records(), nil)
		if err == nil && (!got.Finished() || !got.Output().Equal(base.Output()) || !slices.Equal(got.Trail(), base.Trail())) {
			err = fmt.Errorf("finished %v, output %v, trail %s", got.Finished(), got.Output(), firstDiff(got.Trail(), base.Trail()))
		}
		if err != nil {
			return fail(fmt.Sprintf("recovered after record %d = crash-free run", k), err)
		}
		out.crashes++
	}
	return out, nil
}

// runWorkflow runs one instance of p on a fresh engine whose programs follow
// c's plan, logging to memory. The engine's clock stands still, so trails
// compare event for event.
func (row *equivRow) runWorkflow(c *gen.Case, p *model.Process) (*engine.Engine, *engine.Instance, *rm.Recorder, *wal.MemLog, error) {
	e := engine.New(engine.WithClock(func() int64 { return 0 }))
	rec := &rm.Recorder{}
	mustRegister(e, fmtm.CopyName, fmtm.CopyProgram)
	for _, name := range c.Names() {
		mustRegister(e, name, planProgram(c.Plan, name, rec))
	}
	if row.mutate != nil {
		row.mutate(p)
	}
	log := &wal.MemLog{}
	err := e.RegisterProcess(p)
	var inst *engine.Instance
	if err == nil {
		inst, err = e.CreateInstance(p.Name, nil, log)
	}
	if err == nil {
		err = inst.Start()
	}
	if err == nil && !inst.Finished() {
		err = errors.New("instance did not finish")
	}
	return e, inst, rec, log, err
}

// planProgram is subtransaction name as an engine program: attempt Iter
// aborts as the plan says, and the outcome goes to rec.
func planProgram(plan gen.Plan, name string, rec *rm.Recorder) engine.Program {
	return engine.ProgramFunc(func(inv *engine.Invocation) error {
		if plan.Aborts(name, inv.Iter) {
			rec.Record(name, rm.EvAbort)
			inv.Out.SetRC(1)
		} else {
			rec.Record(name, rm.EvCommit)
			inv.Out.SetRC(0)
		}
		return nil
	})
}

// runNative runs c on its model's executor.
func runNative(c *gen.Case) (bool, *rm.Recorder, error) {
	rec := &rm.Recorder{}
	ex := &saga.Executor{Decider: c.Plan.Injector()}
	switch c.Family {
	case gen.Linear:
		res, err := ex.Execute(c.Saga, fmtm.PureSagaBinding(c.Saga), rec)
		return res.Committed, rec, err
	case gen.Parallel:
		res, err := ex.ExecuteGeneral(c.General, fmtm.PureGeneralBinding(c.General), rec)
		return res.Committed, rec, err
	}
	fx := &flexible.Executor{Decider: c.Plan.Injector()}
	res, err := fx.Execute(c.Flexible, fmtm.PureFlexibleBinding(c.Flexible), rec)
	return res.Committed, rec, err
}

// judge holds a history of c to its model's guarantee.
func judge(c *gen.Case, events []rm.Event) error {
	switch c.Family {
	case gen.Linear:
		return saga.CheckGuarantee(c.Saga, events)
	case gen.Parallel:
		return saga.CheckGeneralGuarantee(c.General, events)
	}
	return flexible.CheckHistory(c.Flexible, events)
}

// translate is FMTM's translation of c.
func translate(c *gen.Case) (*model.Process, error) {
	switch c.Family {
	case gen.Linear:
		return fmtm.TranslateSaga(c.Saga, fmtm.SagaOptions{})
	case gen.Parallel:
		return fmtm.TranslateGeneralSaga(c.General, fmtm.SagaOptions{})
	}
	return fmtm.TranslateFlexible(c.Flexible)
}

// workflowCommitted reads the outcome off a finished workflow's output:
// every saga state 0, or a flexible Result of 0.
func workflowCommitted(c *gen.Case, out *model.Container) bool {
	if c.Family == gen.Flexible {
		return out.MustGet("Result").AsInt() == 0
	}
	for i := 1; i <= c.Size(); i++ {
		if out.MustGet(fmt.Sprintf("State_%d", i)).AsInt() != 0 {
			return false
		}
	}
	return true
}

// agreesWithNative compares a workflow history with the native one: equal
// for linear sagas and flexible transactions; for a parallel saga, the
// committed steps are those whose prerequisites all committed and whose
// first attempt the plan lets commit.
func agreesWithNative(c *gen.Case, workflow, native []rm.Event) error {
	if c.Family != gen.Parallel {
		if w, n := historyOf(workflow), historyOf(native); w != n {
			return fmt.Errorf("workflow %s, native %s", w, n)
		}
		return nil
	}
	want := map[string]bool{}
	for grew := true; grew; {
		grew = false
		for _, st := range c.General.Steps {
			ready := !want[st.Name] && !c.Plan.Aborts(st.Name, 0)
			for _, d := range c.General.Deps[st.Name] {
				ready = ready && want[d]
			}
			if ready {
				want[st.Name], grew = true, true
			}
		}
	}
	for _, ev := range workflow {
		if ev.Kind == rm.EvCommit && !c.IsCompensation(ev.Name) && !want[ev.Name] {
			return fmt.Errorf("%s committed outside the closure %v", ev.Name, want)
		}
		delete(want, ev.Name)
	}
	if len(want) > 0 {
		return fmt.Errorf("closure steps %v never ran", want)
	}
	return nil
}

// historyOf renders a history as "T1:commit T2:abort C1:commit".
func historyOf(events []rm.Event) string {
	parts := make([]string, len(events))
	for i, e := range events {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// firstDiff names the first event where trail got departs from want.
func firstDiff(got, want []engine.Event) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("event %d is %q, want %q", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("has %d events, want %d", len(got), len(want))
}

func trailStrings(inst *engine.Instance) []string {
	var out []string
	for _, ev := range inst.Trail() {
		out = append(out, ev.String())
	}
	return out
}

// paperCase is a specification of the paper under plan.
func paperCase(spec any, plan gen.Plan) *gen.Case {
	c := &gen.Case{Plan: plan}
	switch s := spec.(type) {
	case *saga.Spec:
		c.Family, c.Saga = gen.Linear, s
	case *saga.GeneralSpec:
		c.Family, c.General = gen.Parallel, s
	case *flexible.Spec:
		c.Family, c.Flexible = gen.Flexible, s
	}
	return c
}

// generated is count cases of family f drawn from seeds first, first+1, ...
func generated(f gen.Family, first int64, count int, cfg gen.Config) *equivRow {
	row := &equivRow{name: fmt.Sprintf("generated %ss, seeds %d-%d", f, first, first+int64(count)-1)}
	for i := 0; i < count; i++ {
		row.cases = append(row.cases, gen.New(f, first+int64(i), cfg))
	}
	return row
}

// diamond is the parallel saga a -> {b, c} -> d.
func diamond() *saga.GeneralSpec {
	return &saga.GeneralSpec{
		Name: "diamond",
		Steps: []saga.Step{
			{Name: "a", Compensation: "ca"},
			{Name: "b", Compensation: "cb"},
			{Name: "c", Compensation: "cc"},
			{Name: "d", Compensation: "cd"},
		},
		Deps: map[string][]string{"b": {"a"}, "c": {"a"}, "d": {"b", "c"}},
	}
}

// generatedCases is how many specs of each family the equivalence
// experiments draw.
const generatedCases = 400

// RunE1 reproduces Figure 2 and the appendix saga trace: linear sagas of
// several sizes under every abort point, and generated sagas, agree four
// ways and satisfy the saga guarantee.
func RunE1() *Report {
	var rows []*equivRow
	for _, n := range []int{3, 5, 10} {
		row := &equivRow{name: fmt.Sprintf("n=%d, every abort point", n)}
		for at := 0; at <= n; at++ {
			plan := gen.Plan{}
			if at > 0 {
				plan[fmt.Sprintf("T%d", at)] = gen.Always
			}
			row.cases = append(row.cases, paperCase(NStepSaga("s", n), plan))
		}
		if n == 3 {
			for at, c := range row.cases {
				rows = append(rows, &equivRow{name: fmt.Sprintf("n=3, %s", c.Plan), cases: row.cases[at : at+1]})
			}
			continue
		}
		rows = append(rows, row)
	}
	rows = append(rows, generated(gen.Linear, 1, generatedCases, gen.Default))
	return equiv("E1", "saga as workflow (Fig. 2): native = FMTM = FDL round trip = recovered, under every abort point", rows...)
}

// RunE2 reproduces Figures 3–4 and the appendix flexible-transaction
// trace: every abort scenario of the appendix, and generated flexible
// transactions, agree four ways and are semantically atomic.
func RunE2() *Report {
	scenarios := []struct {
		name string
		plan gen.Plan
	}{
		{"all commit (p1)", gen.Plan{}},
		{"T1 aborts (clean abort)", gen.Plan{"T1": gen.Always}},
		{"T2 aborts (compensate T1)", gen.Plan{"T2": gen.Always}},
		{"T4 aborts (T3 retried, p3)", gen.Plan{"T4": gen.Always, "T3": 2}},
		{"T5 aborts (T7, p2)", gen.Plan{"T5": gen.Always}},
		{"T6 aborts (C5 then T7)", gen.Plan{"T6": gen.Always}},
		{"T8 aborts (C6 C5 then T7)", gen.Plan{"T8": gen.Always}},
	}
	var rows []*equivRow
	for _, sc := range scenarios {
		rows = append(rows, &equivRow{name: sc.name, cases: []*gen.Case{paperCase(Fig3Flexible(), sc.plan)}})
	}
	rows = append(rows, generated(gen.Flexible, 1, generatedCases, gen.Default))
	return equiv("E2", "flexible transaction as workflow (Figs. 3-4): appendix abort scenarios and generated specs, four ways", rows...)
}

// RunE4 reproduces the §3.3 forward-recovery guarantee: the paper's
// workloads and long generated specs of every family, crashed after every
// log record and recovered, finish as the crash-free run did.
func RunE4() *Report {
	long := gen.Config{MaxSteps: 12, MaxDepth: 8, MaxBranch: 2, PEdge: 0.3, PAbort: 0.1}
	rows := []*equivRow{
		{name: "saga n=5 abort@T4", cases: []*gen.Case{paperCase(NStepSaga("s", 5), gen.Plan{"T4": gen.Always})}},
		{name: "travel saga abort@book_car", cases: []*gen.Case{paperCase(travelSaga(), gen.Plan{"book_car": gen.Always})}},
		{name: "flexible Fig.3 abort@T6", cases: []*gen.Case{paperCase(Fig3Flexible(), gen.Plan{"T6": gen.Always})}},
		{name: "diamond abort@d, cb flaky", cases: []*gen.Case{paperCase(diamond(), gen.Plan{"d": gen.Always, "cb": 2})}},
	}
	for _, f := range gen.Families {
		row := generated(f, 1001, 20, long)
		row.name = "long " + row.name
		rows = append(rows, row)
	}
	return equiv("E4", "forward recovery (§3.3): crash after every log record, resume, identical outcome", rows...)
}

// RunE6 checks the generalized (parallel) saga extension the paper's §4.1
// references: the diamond under every abort point, and generated parallel
// sagas, satisfy the generalized guarantee four ways — including the
// in-flight sibling that commits after another step aborted, which linear
// sagas cannot exhibit.
func RunE6() *Report {
	var rows []*equivRow
	for _, victim := range []string{"", "a", "b", "c", "d"} {
		plan := gen.Plan{}
		if victim != "" {
			plan[victim] = gen.Always
		}
		rows = append(rows, &equivRow{name: "diamond, " + plan.String(), cases: []*gen.Case{paperCase(diamond(), plan)}})
	}
	rows = append(rows, generated(gen.Parallel, 1, generatedCases, gen.Default))
	return equiv("E6", "generalized (parallel) saga as workflow: guarantee under every abort point, four ways", rows...)
}
