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

// Executor runs sagas natively — the baseline the paper's workflow
// implementation (Figure 2) is measured against. Compensations are treated
// as retriable: an aborted compensation is retried until it commits, with a
// bound to surface scripting mistakes.
type Executor struct {
	Decider rm.Decider
	// MaxCompensationRetries bounds compensation retries (default 1000).
	MaxCompensationRetries int
}

// Execute runs the saga against the binding, appending the observable
// history to rec: forward steps in order; on the first abort, the
// compensations of all committed steps in reverse order.
func (e *Executor) Execute(spec *Spec, b Binding, rec *rm.Recorder) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if err := spec.Bind(b); err != nil {
		return Result{}, err
	}
	for i, st := range spec.Steps {
		ok, err := rm.Exec(b[st.Name], e.Decider, rec)
		if err != nil {
			return Result{}, err
		}
		if !ok {
			// Step i+1 aborted: compensate T_i..T_1.
			if err := e.compensate(spec.Name, spec.Steps[:i], b, rec); err != nil {
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
	if err := spec.Validate(); err != nil {
		return err
	}
	if err := spec.Bind(b); err != nil {
		return err
	}
	return e.compensate(spec.Name, spec.Steps, b, rec)
}

// compensate runs the compensations of the committed steps, last first,
// each retried until it commits.
func (e *Executor) compensate(name string, committed []Step, b Binding, rec *rm.Recorder) error {
	maxRetries := e.MaxCompensationRetries
	if maxRetries <= 0 {
		maxRetries = 1000
	}
	for i := len(committed) - 1; i >= 0; i-- {
		comp := committed[i].Compensation
		for attempt := 0; ; attempt++ {
			ok, err := rm.Exec(b[comp], e.Decider, rec)
			if err != nil {
				return err
			}
			if ok {
				break
			}
			if attempt >= maxRetries {
				return fmt.Errorf("saga %s: compensation %q did not commit after %d attempts",
					name, comp, attempt+1)
			}
		}
	}
	return nil
}
