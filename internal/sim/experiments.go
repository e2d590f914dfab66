package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/fmtm"
	"repro/internal/rm"
)

// RunAllExperiments runs E1–E13 and returns their reports.
func RunAllExperiments() []*Report {
	return []*Report{RunE1(), RunE2(), RunE3(), RunE4(), RunE5(), RunE6(), RunE7(), RunE8(), RunE9(), RunE10(), RunE11(), RunE12(), RunE13()}
}

// e3Spec is the mixed specification the E3 pipeline run compiles.
const e3Spec = `
SAGA 'travel'
  STEP 'book_flight' COMPENSATION 'cancel_flight'
  STEP 'book_hotel'  COMPENSATION 'cancel_hotel'
  STEP 'book_car'    COMPENSATION 'cancel_car'
END 'travel'
FLEXIBLE 'multidb'
  SUB 'F1' COMPENSATABLE COMPENSATION 'FC1'
  SUB 'F2' PIVOT
  SUB 'F3' RETRIABLE
  PATH 'F1' 'F2'
  PATH 'F1' 'F3'
END 'multidb'
`

// RunE3 reproduces Figure 5: the full Exotica/FMTM pipeline from
// specification text to executable templates, plus rejection of invalid
// input at each stage.
func RunE3() *Report {
	r := &Report{
		ID:      "E3",
		Title:   "Exotica/FMTM pipeline (Fig. 5): spec -> check -> FDL -> import -> semantic check -> template",
		Columns: []string{"stage", "outcome"},
		Pass:    true,
	}
	res, err := fmtm.Pipeline(e3Spec)
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	r.AddRow("specification check", fmt.Sprintf("ok (%d sagas, %d flexible)", len(res.Specs.Sagas), len(res.Specs.Flexible)))
	r.AddRow("translation + FDL export", fmt.Sprintf("ok (%d bytes of FDL)", len(res.FDL)))
	r.AddRow("FDL import + semantic check", fmt.Sprintf("ok (%d processes, %d programs)", len(res.File.Processes), len(res.File.Programs)))

	// Run one instance of each template.
	e := engine.New()
	if err := fmtm.RegisterRuntime(e); err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	rec := &rm.Recorder{}
	inj := rm.NewInjector()
	sg := res.Specs.Sagas[0]
	fx := res.Specs.Flexible[0]
	err = fmtm.RegisterSaga(e, sg, fmtm.PureSagaBinding(sg), inj, rec)
	if err == nil {
		err = fmtm.RegisterFlexible(e, fx, fmtm.PureFlexibleBinding(fx), inj, rec)
	}
	if err == nil {
		err = fmtm.Install(e, res.File)
	}
	if err != nil {
		r.Pass = false
		r.Err = err
		return r
	}
	for _, name := range []string{"travel", "multidb"} {
		inst, err := e.CreateInstance(name, nil, nil)
		if err == nil {
			err = inst.Start()
		}
		if err != nil || !inst.Finished() {
			r.Pass = false
			r.AddRow("instance "+name, fmt.Sprintf("FAILED: %v", err))
			continue
		}
		r.AddRow("instance "+name, "executed to completion")
	}

	// Invalid specs must be rejected with diagnostics.
	bad := map[string]string{
		"syntax error":           "SAGA 'x' STEP oops END 'x'",
		"ill-formed flexible":    "FLEXIBLE 'f' SUB 'p1' PIVOT SUB 'p2' PIVOT PATH 'p1' 'p2' END 'f'",
		"undeclared sub in path": "FLEXIBLE 'f' SUB 's' PIVOT PATH 'zz' END 'f'",
	}
	for name, src := range bad {
		if _, err := fmtm.Pipeline(src); err == nil {
			r.Pass = false
			r.AddRow("reject "+name, "NOT REJECTED")
		} else {
			r.AddRow("reject "+name, "rejected with diagnostic")
		}
	}
	return r
}

// RunE5 checks the §3.2 navigation semantics properties on random DAGs:
// every instance terminates with all activities terminated (DPE guarantees
// progress; the synchronizing or-join never deadlocks).
func RunE5() *Report {
	r := &Report{
		ID:      "E5",
		Title:   "navigation properties (§3.2): random DAGs always terminate; joins and DPE sound",
		Columns: []string{"seed range", "instances", "stuck", "violations"},
		Pass:    true,
	}
	const trials = 300
	stuck, violations := 0, 0
	for seed := int64(0); seed < trials; seed++ {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(14)
		proc := RandomDAG("rand", rr, n, 0.1+0.5*rr.Float64())
		e := engine.New()
		mustRegister(e, "coin", CoinProgram(seed))
		if err := e.RegisterProcess(proc); err != nil {
			violations++
			continue
		}
		inst, err := e.CreateInstance("rand", nil, nil)
		if err == nil {
			err = inst.Start()
		}
		if err != nil {
			violations++
			continue
		}
		if !inst.Finished() {
			stuck++
			continue
		}
		for i := 1; i <= n; i++ {
			if s, ok := inst.ActivityState(fmt.Sprintf("A%d", i)); !ok || s != engine.StateTerminated {
				violations++
				break
			}
		}
	}
	if stuck > 0 || violations > 0 {
		r.Pass = false
	}
	r.AddRow(fmt.Sprintf("0..%d", trials-1), fmt.Sprint(trials), fmt.Sprint(stuck), fmt.Sprint(violations))
	return r
}
