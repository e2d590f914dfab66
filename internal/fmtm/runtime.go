package fmtm

import (
	"repro/internal/atm/flexible"
	"repro/internal/atm/saga"
	"repro/internal/engine"
	"repro/internal/rm"
)

// CopyName is the program name of the pass-through no-operation used by
// generated compensation blocks (the "null activity" of Figure 2): it
// copies every member common to its input and output containers and
// commits. The conditions on its outgoing control connectors then decide
// where compensation starts.
const CopyName = "fmtm_nop"

// CopyProgram implements CopyName. A common member whose kinds do not
// assign fails the program.
var CopyProgram engine.Program = engine.ProgramFunc(func(inv *engine.Invocation) error {
	if err := inv.Out.CopyCommon(inv.In); err != nil {
		return err
	}
	inv.Out.SetRC(0)
	return nil
})

// RegisterRuntime registers the programs generated processes depend on
// (the pass-through NOP). Idempotent per engine only if called once;
// callers that build the engine themselves may also register CopyName
// directly.
func RegisterRuntime(e *engine.Engine) error {
	return e.RegisterProgram(CopyName, CopyProgram)
}

// RegisterSaga registers one engine program per saga step and
// compensation, backed by the given binding, injector and recorder.
func RegisterSaga(e *engine.Engine, spec *saga.Spec, b saga.Binding, dec rm.Decider, rec *rm.Recorder) error {
	if err := spec.Bind(b); err != nil {
		return err
	}
	for _, st := range spec.Steps {
		for _, name := range []string{st.Name, st.Compensation} {
			if err := e.RegisterProgram(name, rm.Program(b[name], dec, rec)); err != nil {
				return err
			}
		}
	}
	return nil
}

// RegisterGeneralSaga registers one engine program per step and
// compensation of a generalized saga.
func RegisterGeneralSaga(e *engine.Engine, spec *saga.GeneralSpec, b saga.Binding, dec rm.Decider, rec *rm.Recorder) error {
	return RegisterSaga(e, &saga.Spec{Name: spec.Name, Steps: spec.Steps}, b, dec, rec)
}

// PureGeneralBinding binds every step and compensation of the generalized
// saga to a storage-free subtransaction.
func PureGeneralBinding(spec *saga.GeneralSpec) saga.Binding {
	return PureSagaBinding(&saga.Spec{Steps: spec.Steps})
}

// RegisterFlexible registers one engine program per flexible
// subtransaction and compensation.
func RegisterFlexible(e *engine.Engine, spec *flexible.Spec, b flexible.Binding, dec rm.Decider, rec *rm.Recorder) error {
	if err := spec.Bind(b); err != nil {
		return err
	}
	for _, sub := range spec.Subs {
		if err := e.RegisterProgram(sub.Name, rm.Program(b[sub.Name], dec, rec)); err != nil {
			return err
		}
		if sub.Compensation != "" {
			if err := e.RegisterProgram(sub.Compensation, rm.Program(b[sub.Compensation], dec, rec)); err != nil {
				return err
			}
		}
	}
	return nil
}

// PureSagaBinding binds every step and compensation of the saga to a
// storage-free subtransaction — outcomes come entirely from the decider.
func PureSagaBinding(spec *saga.Spec) saga.Binding {
	b := saga.Binding{}
	for _, st := range spec.Steps {
		b[st.Name] = rm.Subtransaction{Name: st.Name}
		b[st.Compensation] = rm.Subtransaction{Name: st.Compensation}
	}
	return b
}

// PureFlexibleBinding binds every subtransaction and compensation of the
// flexible transaction to a storage-free subtransaction.
func PureFlexibleBinding(spec *flexible.Spec) flexible.Binding {
	b := flexible.Binding{}
	for _, sub := range spec.Subs {
		b[sub.Name] = rm.Subtransaction{Name: sub.Name}
		if sub.Compensation != "" {
			b[sub.Compensation] = rm.Subtransaction{Name: sub.Compensation}
		}
	}
	return b
}
