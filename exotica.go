// Package exotica is the top-level facade of the reproduction of
// "Advanced Transaction Models in Workflow Contexts" (Alonso, Agrawal,
// El Abbadi, Kamath, Günthör, Mohan — ICDE 1996): a FlowMark-class
// workflow management system in Go, plus the Exotica/FMTM pre-processor
// that compiles advanced transaction models (linear Sagas and Flexible
// Transactions) into workflow processes.
//
// The building blocks live in internal packages:
//
//   - internal/engine — the navigation engine (§3.2 semantics: activity
//     states, AND/OR joins, transition and exit conditions, dead path
//     elimination, blocks, data containers, worklists, WAL + forward
//     recovery);
//   - internal/model, internal/expr, internal/fdl — the process meta-model,
//     the condition language and the definition language;
//   - internal/org — the §3.3 organization model (roles, worklists,
//     notifications);
//   - internal/atm/saga, internal/atm/flexible — the two transaction
//     models, each with a native executor used as the baseline;
//   - internal/fmtm — the Figure 5 pipeline and the Figure 2 / Figure 4
//     translations;
//   - internal/txdb, internal/rm — the multidatabase substrate (strict 2PL
//     stores) and failure-injectable resource managers;
//   - internal/sim — workload generators and the E1–E13 / S1 evaluation
//     harness (B1–B16 are the benchmarks in bench_test.go).
//
// This package exposes the single most common flow — compile a
// specification and execute one of the generated processes with scripted
// subtransaction outcomes — so the quickest possible use of the system is
// a handful of lines; anything richer should use the internal packages
// directly (see examples/).
package exotica

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fmtm"
	"repro/internal/rm"
	"repro/internal/sim"
)

// CompileResult is the outcome of compiling an FMTM specification: the
// emitted FDL text and an engine factory for executing the generated
// process templates.
type CompileResult struct {
	res *fmtm.PipelineResult
}

// FDL returns the generated definition-language text.
func (c *CompileResult) FDL() string { return c.res.FDL }

// Processes returns the names of the generated process templates.
func (c *CompileResult) Processes() []string {
	out := make([]string, 0, len(c.res.File.Processes))
	for _, p := range c.res.File.Processes {
		out = append(out, p.Name)
	}
	return out
}

// Compile runs the full Exotica/FMTM pipeline (parse, model checks,
// translation, FDL export, FDL re-import, semantic checks) on a
// specification text containing SAGA and FLEXIBLE definitions.
func Compile(spec string) (*CompileResult, error) {
	res, err := fmtm.Pipeline(spec)
	if err != nil {
		return nil, err
	}
	return &CompileResult{res: res}, nil
}

// Run executes one generated process with pure (storage-free)
// subtransactions whose outcomes are scripted by the decider (nil commits
// everything). It returns the observable transactional history.
func (c *CompileResult) Run(process string, dec rm.Decider) ([]rm.Event, error) {
	e := engine.New()
	if err := fmtm.RegisterRuntime(e); err != nil {
		return nil, err
	}
	rec := &rm.Recorder{}
	for _, s := range c.res.Specs.Sagas {
		if err := fmtm.RegisterSaga(e, s, fmtm.PureSagaBinding(s), dec, rec); err != nil {
			return nil, err
		}
	}
	for _, g := range c.res.Specs.General {
		if err := fmtm.RegisterGeneralSaga(e, g, fmtm.PureGeneralBinding(g), dec, rec); err != nil {
			return nil, err
		}
	}
	for _, f := range c.res.Specs.Flexible {
		if err := fmtm.RegisterFlexible(e, f, fmtm.PureFlexibleBinding(f), dec, rec); err != nil {
			return nil, err
		}
	}
	if err := fmtm.Install(e, c.res.File); err != nil {
		return nil, err
	}
	inst, err := e.CreateInstance(process, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := inst.Start(); err != nil {
		return nil, err
	}
	if !inst.Finished() {
		return nil, fmt.Errorf("exotica: process %s did not run to completion", process)
	}
	return rec.Events(), nil
}

// SimulateSaga estimates the outcome distribution of a compiled saga under
// independent per-step abort probabilities (§3.3 simulation): commit rate,
// abort-position distribution, mean compensations. Deterministic per seed.
func (c *CompileResult) SimulateSaga(name string, abort map[string]float64, trials int, seed int64) (sim.SagaSimResult, error) {
	for _, s := range c.res.Specs.Sagas {
		if s.Name == name {
			return sim.SimulateSaga(s, abort, trials, seed)
		}
	}
	return sim.SagaSimResult{}, fmt.Errorf("exotica: no saga named %q in the compiled specification", name)
}

// SimulateFlexible estimates the outcome distribution of a compiled
// flexible transaction: which execution path commits how often, global
// abort rate, mean path switches. Deterministic per seed.
func (c *CompileResult) SimulateFlexible(name string, abort map[string]float64, trials int, seed int64) (sim.FlexSimResult, error) {
	for _, f := range c.res.Specs.Flexible {
		if f.Name == name {
			return sim.SimulateFlexible(f, abort, trials, seed)
		}
	}
	return sim.FlexSimResult{}, fmt.Errorf("exotica: no flexible transaction named %q in the compiled specification", name)
}
