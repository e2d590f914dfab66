package sim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/atm"
	"repro/internal/atm/flexible"
	"repro/internal/atm/gen"
	"repro/internal/atm/saga"
	"repro/internal/fmtm"
	"repro/internal/model"
	"repro/internal/randdag"
	"repro/internal/wal"
)

func TestWorkloadGenerators(t *testing.T) {
	e := NewEngine()
	chain := Chain("chain", 10)
	fan := FanOutIn("fan", 5)
	dpe := DPEChain("dpe", 10)
	for _, p := range []*model.Process{chain, fan, dpe} {
		if err := p.Validate(nil); err != nil {
			t.Fatalf("generated process %s invalid: %v", p.Name, err)
		}
		if err := e.RegisterProcess(p); err != nil {
			t.Fatal(err)
		}
	}
	// Chain executes all 10.
	inst, err := e.CreateInstance("chain", nil, wal.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil || !inst.Finished() {
		t.Fatalf("chain: %v", err)
	}
	if got := len(inst.ProgramRuns()); got != 10 {
		t.Fatalf("chain runs = %d", got)
	}
	// Fan executes A + 5 workers + Z.
	inst2, _ := e.CreateInstance("fan", nil, wal.Discard)
	if err := inst2.Start(); err != nil || !inst2.Finished() {
		t.Fatalf("fan: %v", err)
	}
	if got := len(inst2.ProgramRuns()); got != 7 {
		t.Fatalf("fan runs = %d", got)
	}
	// DPE chain executes only the aborting head.
	inst3, _ := e.CreateInstance("dpe", nil, wal.Discard)
	if err := inst3.Start(); err != nil || !inst3.Finished() {
		t.Fatalf("dpe: %v", err)
	}
	if got := len(inst3.ProgramRuns()); got != 1 {
		t.Fatalf("dpe runs = %d", got)
	}
}

func TestRandomDAGGeneratorValid(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := randdag.Process(r, "rand", 2+r.Intn(12), 0.4)
		if err := p.Validate(nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRandomFlexibleEquivalence: generated flexible transactions with
// wide decision points and frequent failures agree four ways.
func TestRandomFlexibleEquivalence(t *testing.T) {
	wide := gen.Config{MaxSteps: 10, MaxDepth: 6, MaxBranch: 4, PAbort: 0.5}
	if rep := equiv("E2", "wide flexible", generated(gen.Flexible, 1, 200, wide)); !rep.Pass {
		t.Fatal(rep)
	}
}

func TestExperimentsAllPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow in -short mode")
	}
	for _, rep := range []*Report{RunE1(), RunE2(), RunE3(), RunE4(), RunE5(), RunE6(), RunE7(), RunE8(), RunE9(), RunE10(), RunE11(), RunE12(), RunE13()} {
		if !rep.Pass {
			t.Errorf("%s failed:\n%s", rep.ID, rep)
		}
		if !strings.Contains(rep.String(), rep.ID) {
			t.Errorf("%s: report rendering broken", rep.ID)
		}
	}
}

func TestReportString(t *testing.T) {
	r := &Report{ID: "X", Title: "demo", Columns: []string{"a", "bb"}, Pass: true}
	r.AddRow("1", "2")
	out := r.String()
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "demo") {
		t.Fatalf("report: %s", out)
	}
	r.Pass = false
	if !strings.Contains(r.String(), "FAIL") {
		t.Fatal("fail verdict missing")
	}
}

func TestSimulateSaga(t *testing.T) {
	spec := NStepSaga("s", 4)
	// No failures: always commits, never compensates.
	res, err := SimulateSaga(spec, nil, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommitRate != 1 || res.MeanCompensations != 0 {
		t.Fatalf("clean run: %+v", res)
	}
	// T3 aborts with p=1: always aborts at step 3, compensating 2 steps.
	res, err = SimulateSaga(spec, map[string]float64{"T3": 1}, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommitRate != 0 || res.AbortAt[2] != 1 || res.MeanCompensations != 2 {
		t.Fatalf("forced abort: %+v", res)
	}
	// Intermediate probability: commit rate in (0,1), determinism by seed.
	a, err := SimulateSaga(spec, map[string]float64{"T2": 0.3}, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := SimulateSaga(spec, map[string]float64{"T2": 0.3}, 2000, 7)
	if a.CommitRate != b.CommitRate {
		t.Fatal("not deterministic by seed")
	}
	if a.CommitRate < 0.6 || a.CommitRate > 0.8 {
		t.Fatalf("commit rate = %v, want about 0.7", a.CommitRate)
	}
	// Invalid spec rejected.
	if _, err := SimulateSaga(&saga.Spec{}, nil, 1, 1); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestSimulateFlexible(t *testing.T) {
	spec := Fig3Flexible()
	// No failures: p1 always.
	res, err := SimulateFlexible(spec, nil, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.PathRate["T1,T2,T4,T5,T6,T8"] != 1 || res.AbortRate != 0 {
		t.Fatalf("clean run: %+v", res)
	}
	// T8 always aborts: p2 always, exactly one switch.
	res, err = SimulateFlexible(spec, map[string]float64{"T8": 1}, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.PathRate["T1,T2,T4,T7"] != 1 || res.MeanSwitches != 1 {
		t.Fatalf("forced p2: %+v", res)
	}
	// Moderate failure everywhere non-retriable: mass distributes over the
	// three paths plus global abort, in preference order p1 first.
	abort := map[string]float64{}
	for _, sub := range spec.Subs {
		if !sub.Retriable {
			abort[sub.Name] = 0.2
		}
	}
	res, err = SimulateFlexible(spec, abort, 4000, 11)
	if err != nil {
		t.Fatal(err)
	}
	paths := res.sortedPaths()
	if len(paths) == 0 || paths[0] != "T1,T2,T4,T5,T6,T8" {
		t.Fatalf("p1 should dominate at p=0.2: %v %v", paths, res.PathRate)
	}
	if res.AbortRate == 0 || res.AbortRate > 0.5 {
		t.Fatalf("abort rate = %v", res.AbortRate)
	}
	sum := res.AbortRate
	for _, v := range res.PathRate {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("rates sum to %v", sum)
	}
	// Ill-formed spec rejected.
	bad := Fig3Flexible()
	bad.Subs[4] = flexible.SubSpec{Name: "T5"} // pivot: breaks well-formedness
	if _, err := SimulateFlexible(bad, nil, 1, 1); err == nil {
		t.Fatal("ill-formed spec accepted")
	}
}

func TestRunS1(t *testing.T) {
	rep := RunS1()
	if !rep.Pass || len(rep.Rows) != 5 {
		t.Fatalf("S1: %+v", rep)
	}
	// At p=0, everything commits on p1.
	if rep.Rows[0][1] != "1.000" || rep.Rows[0][4] != "0.000" {
		t.Fatalf("p=0 row: %v", rep.Rows[0])
	}
}

// TestE3RowsNeedTheirConstraint is the mutant check of E3's coverage: with
// any one row deleted from its table, E3's line for that constraint fails,
// so each row is the only check that rejects its violations by name.
func TestE3RowsNeedTheirConstraint(t *testing.T) {
	tables := []struct {
		rows []rule
		drop func(i int) (restore func())
	}{
		{rules(saga.Constraints), func(i int) func() { return without(&saga.Constraints, i) }},
		{rules(flexible.Constraints), func(i int) func() { return without(&flexible.Constraints, i) }},
		{rules(fmtm.FileConstraints), func(i int) func() { return without(&fmtm.FileConstraints, i) }},
	}
	for _, table := range tables {
		for i, row := range table.rows {
			if _, _, err := rejects(row.name); err != nil {
				t.Fatalf("%s intact: %v", row.name, err)
			}
			restore := table.drop(i)
			_, stage, err := rejects(row.name)
			restore()
			if err == nil {
				t.Errorf("%s deleted: E3 still rejects its violations by its name", row.name)
			}
			t.Logf("%s deleted: first violation %s", row.name, stage)
		}
	}
}

// without deletes row i of table *t until restore is called.
func without[S any](t *atm.Table[S], i int) (restore func()) {
	saved := *t
	*t = slices.Delete(slices.Clone(saved), i, i+1)
	return func() { *t = saved }
}
