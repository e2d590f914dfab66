package fmtm

import (
	"fmt"
	"strings"

	"repro/internal/atm/saga"
	"repro/internal/expr"
	"repro/internal/model"
)

// TranslateGeneralSaga converts a generalized (parallel) saga into a
// workflow process by extending the Figure 2 construction to partial
// orders, as §4.1 says the original authors did for parallel and
// generalized sagas:
//
//   - the Forward block wires one activity per step along the dependency
//     edges with "RC = 0" transition conditions and AND joins, so
//     independent steps are concurrent in the model and an abort
//     dead-path-eliminates exactly the downstream steps;
//   - the Compensation block mirrors the dependency graph in reverse: the
//     NOP start activity triggers the compensation of every "maximal"
//     executed step (committed, with no committed dependents), and a
//     reversed connector per dependency edge delays each compensation
//     until the compensations of all committed dependents have finished —
//     the or-join semantics of §3.2 (start conditions evaluate only after
//     every incoming connector has a value) provide the synchronization;
//   - the blocks connect on the condition that some step aborted.
func TranslateGeneralSaga(spec *saga.GeneralSpec, opts SagaOptions) (*model.Process, error) {
	if err := (&SpecFile{General: []*saga.GeneralSpec{spec}}).check(); err != nil {
		return nil, err
	}

	n := len(spec.Steps)
	idx := make(map[string]int, n) // step name -> 1-based state index
	for i, st := range spec.Steps {
		idx[st.Name] = i + 1
	}
	p, fwd, comp, err := sagaProcess(spec.Name, fmt.Sprintf("generalized saga %s compiled by Exotica/FMTM (parallel Figure 2 construction)", spec.Name), spec.Steps)
	if err != nil {
		return nil, err
	}
	for _, st := range spec.Steps {
		// Forward block: the dependency DAG.
		for _, d := range spec.Deps[st.Name] {
			fwd.Control = append(fwd.Control, &model.ControlConnector{
				From: d, To: st.Name, Condition: expr.MustParse("RC = 0"),
			})
		}
		// Compensation block: the reversed DAG. NOP fires this compensation
		// when the step committed and none of its dependents did (it is a
		// maximal committed step).
		conds := []string{fmt.Sprintf("%s = 0", stateMember(idx[st.Name]))}
		for _, dep := range spec.Dependents(st.Name) {
			conds = append(conds, fmt.Sprintf("%s <> 0", stateMember(idx[dep])))
		}
		comp.Control = append(comp.Control, &model.ControlConnector{
			From: nopActivityName, To: st.Compensation,
			Condition: expr.MustParse(strings.Join(conds, " AND ")),
		})
		// Reversed dependency edges: compensating a dependent enables the
		// compensation of its prerequisites.
		for _, d := range spec.Deps[st.Name] {
			comp.Control = append(comp.Control, &model.ControlConnector{
				From: st.Compensation, To: spec.Steps[idx[d]-1].Compensation,
			})
		}
	}
	if !opts.CompensateCompleted {
		// The saga aborted iff some step aborted.
		var aborts []string
		for i := 1; i <= n; i++ {
			aborts = append(aborts, fmt.Sprintf("%s = 1", stateMember(i)))
		}
		p.Control[0].Condition = expr.MustParse(strings.Join(aborts, " OR "))
	}
	if err := p.Validate(nil); err != nil {
		return nil, fmt.Errorf("fmtm: generated general saga process invalid: %w", err)
	}
	return p, nil
}
