package fmtm

import (
	"fmt"

	"repro/internal/atm/saga"
	"repro/internal/expr"
	"repro/internal/model"
)

// Reserved activity names of the saga construction.
const (
	forwardBlockName      = "Forward"
	compensationBlockName = "Compensation"
	nopActivityName       = "NOP"
)

// SagaOptions tune the Figure 2 construction.
type SagaOptions struct {
	// CompensateCompleted builds the variant the paper mentions where
	// "users may require to compensate an already completed saga": the
	// compensation block is entered unconditionally and compensates every
	// executed step, including a fully committed saga.
	CompensateCompleted bool
}

// TranslateSaga converts a linear saga into a workflow process using
// exactly the construction of §4.1 / Figure 2:
//
//   - a Forward block holds one activity per subtransaction, chained by
//     control connectors with transition condition "RC = 0"; each activity
//     maps its return code into the block output member State_i
//     (default -1 = never executed, 0 = committed, non-zero = aborted), so
//     an abort dead-path-eliminates the rest of the chain and the block
//     output records exactly the executed prefix;
//   - a Compensation block receives those states through a data connector;
//     its NOP start activity has a control connector to every compensating
//     activity, conditioned so that compensation starts at the last
//     executed step; reversed connectors between the compensating
//     activities drive compensation in reverse execution order; each
//     compensating activity's exit condition "RC = 0" retries it until it
//     commits.
func TranslateSaga(spec *saga.Spec, opts SagaOptions) (*model.Process, error) {
	if err := (&SpecFile{Sagas: []*saga.Spec{spec}}).check(); err != nil {
		return nil, err
	}

	n := len(spec.Steps)
	p, fwd, comp, err := sagaProcess(spec.Name, fmt.Sprintf("linear saga %s compiled by Exotica/FMTM (Figure 2 construction)", spec.Name), spec.Steps)
	if err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		fwd.Control = append(fwd.Control, &model.ControlConnector{
			From: spec.Steps[i-1].Name, To: spec.Steps[i].Name, Condition: expr.MustParse("RC = 0"),
		})
	}
	for i, st := range spec.Steps {
		// The NOP fires the compensation of the last executed step: step i
		// committed but step i+1 did not run or aborted.
		cond := fmt.Sprintf("%s = 0", stateMember(i+1))
		if i+1 < n {
			cond = fmt.Sprintf("%s = 0 AND %s <> 0", stateMember(i+1), stateMember(i+2))
		}
		comp.Control = append(comp.Control, &model.ControlConnector{
			From: nopActivityName, To: st.Compensation, Condition: expr.MustParse(cond),
		})
		// Reverse chaining: after compensating step i+1, compensate step i.
		if i > 0 {
			comp.Control = append(comp.Control, &model.ControlConnector{
				From: st.Compensation, To: spec.Steps[i-1].Compensation,
			})
		}
	}
	if !opts.CompensateCompleted {
		// The saga aborted iff its last step did not commit.
		p.Control[0].Condition = expr.MustParse(fmt.Sprintf("%s <> 0", stateMember(n)))
	}
	if err := p.Validate(nil); err != nil {
		return nil, fmt.Errorf("fmtm: generated saga process invalid: %w", err)
	}
	return p, nil
}

// sagaProcess builds what the linear and the parallel construction share,
// leaving the control connectors inside the blocks and the entry condition
// to the caller: the <name>_States structure with one State_i per step
// (default -1 = never executed); a Forward block with one activity per
// step mapping its RC to its state; a Compensation block receiving the
// states, with the NOP start activity and one retriable compensating
// activity per step; and the Forward -> Compensation connector.
func sagaProcess(name, description string, steps []saga.Step) (p *model.Process, fwd, comp *model.Graph, err error) {
	n := len(steps)
	statesType := name + "_States"
	p = model.NewProcess(name)
	p.Description = description
	members := make([]model.Member, n)
	for i := range members {
		members[i] = model.Member{Name: stateMember(i + 1), Basic: model.Long, Default: expr.Int(-1)}
	}
	if err := p.Types.Register(&model.StructType{Name: statesType, Members: members}); err != nil {
		return nil, nil, nil, err
	}
	p.OutputType = statesType

	fwd = &model.Graph{OutputType: statesType}
	comp = &model.Graph{InputType: statesType}
	comp.Activities = append(comp.Activities, &model.Activity{
		Name: nopActivityName, Kind: model.KindProgram, Program: CopyName,
		InputType: statesType, OutputType: statesType,
	})
	comp.Data = append(comp.Data, &model.DataConnector{
		From: model.ScopeRef, To: nopActivityName, Maps: stateMaps(n),
	})
	for i, st := range steps {
		fwd.Activities = append(fwd.Activities, &model.Activity{
			Name: st.Name, Kind: model.KindProgram, Program: st.Name,
		})
		fwd.Data = append(fwd.Data, &model.DataConnector{
			From: st.Name, To: model.ScopeRef,
			Maps: []model.DataMap{{FromPath: model.RCMember, ToPath: stateMember(i + 1)}},
		})
		comp.Activities = append(comp.Activities, &model.Activity{
			Name: st.Compensation, Kind: model.KindProgram, Program: st.Compensation,
			Exit:  expr.MustParse("RC = 0"), // compensations are retriable
			Retry: retriableRetry,
			Join:  model.JoinOr,
		})
	}

	p.Activities = []*model.Activity{
		{Name: forwardBlockName, Kind: model.KindBlock, Block: fwd, OutputType: statesType},
		{Name: compensationBlockName, Kind: model.KindBlock, Block: comp, InputType: statesType},
	}
	p.Control = []*model.ControlConnector{{From: forwardBlockName, To: compensationBlockName}}
	p.Data = []*model.DataConnector{
		{From: forwardBlockName, To: compensationBlockName, Maps: stateMaps(n)},
		{From: forwardBlockName, To: model.ScopeRef, Maps: stateMaps(n)},
	}
	return p, fwd, comp, nil
}

func stateMember(i int) string { return fmt.Sprintf("State_%d", i) }

// retriableRetry is attached to every activity whose subtransaction is
// retriable — including compensations, which are retriable by definition.
// The "RC = 0" exit condition already re-runs transactional aborts; this
// policy additionally re-invokes the program on transient infrastructure
// failures (deadline misses, engine.Transient errors) before the instance
// is failed. No backoff: generated processes stay fast under test, and a
// caller needing paced retries can override Retry on the built model.
var retriableRetry = &model.RetryPolicy{MaxAttempts: 3}

func stateMaps(n int) []model.DataMap {
	maps := make([]model.DataMap, n)
	for i := range maps {
		maps[i] = model.DataMap{FromPath: stateMember(i + 1), ToPath: stateMember(i + 1)}
	}
	return maps
}
