package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/atm"
	"repro/internal/atm/flexible"
	"repro/internal/atm/gen"
	"repro/internal/atm/saga"
	"repro/internal/engine"
	"repro/internal/fmtm"
	"repro/internal/randdag"
)

// RunE3 reproduces the check stage of Figure 5 — "The pre-processor
// checks that the user specification meets the format of the advanced
// transaction model specified" — by generated violations: every row of
// every constraint table (saga.Constraints, flexible.Constraints,
// fmtm.FileConstraints) is broken in e3Seeds specs drawn by gen.Violate,
// each printed as FMTM text and run through fmtm.Pipeline, which must
// reject it at the specification stage naming that row. The pipeline's
// acceptance side is way 3 of E1, E2, E4 and E6.
func RunE3() *Report {
	r := &Report{
		ID:      "E3",
		Title:   "Exotica/FMTM check stage (Fig. 5): every constraint, generated, rejected by name",
		Columns: []string{"constraint", "section", "stage", "rejected"},
		Pass:    true,
	}
	for _, c := range slices.Concat(rules(saga.Constraints), rules(flexible.Constraints), rules(fmtm.FileConstraints)) {
		n, stage, err := rejects(c.name)
		if err != nil && r.Pass {
			r.fail(fmt.Errorf("E3 %s %w", c.name, err))
		}
		r.AddRow(c.name, c.section, stage, fmt.Sprintf("%d/%d", n, e3Seeds))
	}
	return r
}

// e3Seeds is how many violations of each constraint E3 draws.
const e3Seeds = 20

// rule is a constraint table row as E3 reports it.
type rule struct{ name, section string }

// rules lists the rows of table t.
func rules[S any](t atm.Table[S]) []rule {
	out := make([]rule, len(t))
	for i, c := range t {
		out[i] = rule{c.Name, c.Section}
	}
	return out
}

// rejects runs the violations of constraint drawn from seeds 1..e3Seeds
// through the pipeline and counts those the specification stage rejects
// naming constraint. stage is where the first stopped; err is the first
// not so rejected, as "seed=<s>: <stage>: <error>" and the spec text.
func rejects(constraint string) (n int, stage string, err error) {
	for seed := int64(1); seed <= e3Seeds; seed++ {
		c := gen.Violate(constraint, seed)
		if c == nil {
			return 0, "-", errors.New("has no generated violation")
		}
		s, perr := pipelineStage(c.Text())
		if seed == 1 {
			stage = s
		}
		var v *atm.Violation
		switch {
		case s == "specification" && errors.As(perr, &v) && v.Constraint == constraint:
			n++
		case err == nil:
			err = fmt.Errorf("seed=%d: %s: %v\n%s", seed, s, perr, c.Text())
		}
	}
	return n, stage, err
}

// pipelineStage runs text through fmtm.Pipeline and names the stage that
// rejected it: "accepted" when none did, "panic" when one panicked.
func pipelineStage(text string) (stage string, err error) {
	defer func() {
		if p := recover(); p != nil {
			stage, err = "panic", fmt.Errorf("%v", p)
		}
	}()
	if _, err = fmtm.Pipeline(text); err == nil {
		return "accepted", nil
	}
	stage, _, _ = strings.Cut(strings.TrimPrefix(err.Error(), "fmtm: "), " stage: ")
	return stage, err
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
		proc := randdag.Process(rr, "rand", n, 0.1+0.5*rr.Float64())
		e := engine.New()
		mustRegister(e, "coin", coinProgram(seed))
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
		for _, a := range proc.Activities {
			if s, ok := inst.ActivityState(a.Name); !ok || s != engine.StateTerminated {
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
