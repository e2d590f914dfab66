package saga_test

import (
	"testing"

	"repro/internal/atm/gen"
	"repro/internal/atm/saga"
	"repro/internal/rm"
)

func pure(steps []saga.Step) saga.Binding {
	b := saga.Binding{}
	for _, st := range steps {
		b[st.Name] = rm.Subtransaction{Name: st.Name}
		b[st.Compensation] = rm.Subtransaction{Name: st.Compensation}
	}
	return b
}

// TestQuickGuaranteeHolds: for generated sagas and abort plans, the native
// executor's history satisfies the guarantee and the saga aborts exactly
// at the first step the plan fails.
func TestQuickGuaranteeHolds(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		c := gen.New(gen.Linear, seed, gen.Default)
		rec := &rm.Recorder{}
		res, err := (&saga.Executor{Decider: c.Plan.Injector()}).Execute(c.Saga, pure(c.Saga.Steps), rec)
		if err == nil {
			err = saga.CheckGuarantee(c.Saga, rec.Events())
		}
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, c.Text())
		}
		abortAt := 0
		for i, st := range c.Saga.Steps {
			if c.Plan.Aborts(st.Name, 0) {
				abortAt = i + 1
				break
			}
		}
		if res.Committed != (abortAt == 0) || res.AbortedAt != abortAt {
			t.Fatalf("seed %d: result %+v, plan fails step %d\n%s", seed, res, abortAt, c.Text())
		}
	}
}

// TestQuickGeneralGuarantee: generated parallel sagas under generated
// abort plans satisfy the generalized guarantee under the native executor,
// and commit exactly when the plan fails no step.
func TestQuickGeneralGuarantee(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		c := gen.New(gen.Parallel, seed, gen.Default)
		rec := &rm.Recorder{}
		res, err := (&saga.Executor{Decider: c.Plan.Injector()}).ExecuteGeneral(c.General, pure(c.General.Steps), rec)
		if err == nil {
			err = saga.CheckGeneralGuarantee(c.General, rec.Events())
		}
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, c.Text())
		}
		fails := false
		for _, st := range c.General.Steps {
			fails = fails || c.Plan.Aborts(st.Name, 0)
		}
		if res.Committed == fails {
			t.Fatalf("seed %d: committed %v, plan fails a step %v\n%s", seed, res.Committed, fails, c.Text())
		}
	}
}
