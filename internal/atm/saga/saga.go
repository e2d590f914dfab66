package saga

import (
	"fmt"

	"repro/internal/rm"
)

// Step is one subtransaction of the saga with its compensating
// subtransaction. Compensation may be empty only in specifications that are
// never asked to compensate (the checker and executor treat missing
// compensation of an executed step as an error).
type Step struct {
	Name         string
	Compensation string
}

// Spec is a linear saga: an ordered list of steps.
type Spec struct {
	Name  string
	Steps []Step
}

// Validate checks the specification against the saga's Constraints; a
// linear saga has no dependencies, so only the rows of §4.1's T1..Tn with
// C1..Cn can fail.
func (s *Spec) Validate() error {
	return Constraints.Check(&GeneralSpec{Name: s.Name, Steps: s.Steps})
}

// Binding maps every subtransaction name (steps and compensations) of a
// spec to its executable subtransaction.
type Binding map[string]rm.Subtransaction

// Bind checks that every step and compensation of the spec has a bound
// subtransaction.
func (s *Spec) Bind(b Binding) error {
	for _, st := range s.Steps {
		if _, ok := b[st.Name]; !ok {
			return fmt.Errorf("saga %s: no binding for step %q", s.Name, st.Name)
		}
		if _, ok := b[st.Compensation]; !ok {
			return fmt.Errorf("saga %s: no binding for compensation %q", s.Name, st.Compensation)
		}
	}
	return nil
}

// Result reports the outcome of a saga execution.
type Result struct {
	// Committed is true when every step committed; false when the saga
	// aborted and was compensated.
	Committed bool
	// AbortedAt is the 1-based index of the step whose abort triggered
	// compensation (0 when Committed).
	AbortedAt int
}

// Prepared is a saga validated and bound once, ready to run any number of
// times: the native analogue of registering a process with the engine.
type Prepared struct {
	name  string
	steps []Step              // a copy of the spec's steps
	fwd   []rm.Subtransaction // the bound steps, by index
	comps []rm.Subtransaction // their bound compensations
}

// Prepare validates the saga and binds every step and compensation.
func Prepare(spec *Spec, b Binding) (*Prepared, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Bind(b); err != nil {
		return nil, err
	}
	p := &Prepared{
		name:  spec.Name,
		steps: append([]Step(nil), spec.Steps...),
		fwd:   make([]rm.Subtransaction, len(spec.Steps)),
		comps: make([]rm.Subtransaction, len(spec.Steps)),
	}
	for i, st := range spec.Steps {
		p.fwd[i], p.comps[i] = b[st.Name], b[st.Compensation]
	}
	return p, nil
}

// Executor runs sagas natively — the baseline the paper's workflow
// implementation (Figure 2) is measured against. Compensations are treated
// as retriable: an aborted compensation is retried until it commits, with a
// bound to surface scripting mistakes.
type Executor struct {
	Decider rm.Decider
	// MaxCompensationRetries bounds compensation retries (default 1000).
	MaxCompensationRetries int
}

// Execute prepares the saga against the binding and runs it (Run).
func (e *Executor) Execute(spec *Spec, b Binding, rec *rm.Recorder) (Result, error) {
	p, err := Prepare(spec, b)
	if err != nil {
		return Result{}, err
	}
	return e.Run(p, rec)
}

// Run runs a prepared saga, appending the observable history to rec:
// forward steps in order; on the first abort, the compensations of all
// committed steps in reverse order.
func (e *Executor) Run(p *Prepared, rec *rm.Recorder) (Result, error) {
	for i, st := range p.fwd {
		ok, err := rm.Exec(st, e.Decider, rec)
		if err != nil {
			return Result{}, err
		}
		if !ok {
			// Step i+1 aborted: compensate T_i..T_1.
			if err := e.compensate(p, i, rec); err != nil {
				return Result{}, err
			}
			return Result{Committed: false, AbortedAt: i + 1}, nil
		}
	}
	return Result{Committed: true}, nil
}

// Compensate undoes an already committed saga — the paper notes "users may
// require to compensate an already completed saga", in which case all
// steps are compensated.
func (e *Executor) Compensate(spec *Spec, b Binding, rec *rm.Recorder) error {
	p, err := Prepare(spec, b)
	if err != nil {
		return err
	}
	return e.compensate(p, len(p.steps), rec)
}

// compensate runs the compensations of the first committed steps, last
// first.
func (e *Executor) compensate(p *Prepared, committed int, rec *rm.Recorder) error {
	for i := committed - 1; i >= 0; i-- {
		if err := e.compensateOne(p.name, p.steps[i].Compensation, p.comps[i], rec); err != nil {
			return err
		}
	}
	return nil
}

// compensateOne runs the compensation comp of the named saga, bound to sub,
// until it commits.
func (e *Executor) compensateOne(name, comp string, sub rm.Subtransaction, rec *rm.Recorder) error {
	maxRetries := e.MaxCompensationRetries
	if maxRetries <= 0 {
		maxRetries = 1000
	}
	for attempt := 0; ; attempt++ {
		ok, err := rm.Exec(sub, e.Decider, rec)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if attempt >= maxRetries {
			return fmt.Errorf("saga %s: compensation %q did not commit after %d attempts",
				name, comp, attempt+1)
		}
	}
}
