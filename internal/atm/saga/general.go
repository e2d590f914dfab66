package saga

import (
	"fmt"

	"repro/internal/rm"
)

// GeneralSpec is a generalized (parallel) saga: a partial order of
// subtransactions instead of a sequence. §4.1 notes the linear construction
// "was later extended to parallel sagas and generalized sagas
// [GMGK+90, GMGK+91a, GMGK+91b] ... the same ideas apply to the more
// general case"; this type is that general case. Steps without
// dependencies may run concurrently; the saga commits when every step
// commits, and aborts by compensating every committed step, each
// compensation running only after the compensations of the step's
// committed dependents.
type GeneralSpec struct {
	Name  string
	Steps []Step
	// Deps maps a step name to the names of the steps that must commit
	// before it starts. Steps absent from the map have no prerequisites.
	Deps map[string][]string
}

// Validate checks the specification against the saga's Constraints.
func (s *GeneralSpec) Validate() error { return Constraints.Check(s) }

// Linear reports whether the partial order is in fact the declaration
// sequence (each step depending exactly on its predecessor), in which case
// the spec is equivalent to a linear saga.
func (s *GeneralSpec) Linear() bool {
	for i, st := range s.Steps {
		deps := s.Deps[st.Name]
		if i == 0 {
			if len(deps) != 0 {
				return false
			}
			continue
		}
		if len(deps) != 1 || deps[0] != s.Steps[i-1].Name {
			return false
		}
	}
	return true
}

// Dependents returns the steps that list name as a prerequisite, in
// declaration order.
func (s *GeneralSpec) Dependents(name string) []string {
	var out []string
	for _, st := range s.Steps {
		for _, d := range s.Deps[st.Name] {
			if d == name {
				out = append(out, st.Name)
				break
			}
		}
	}
	return out
}

// Bind checks that every step and compensation has a bound subtransaction.
func (s *GeneralSpec) Bind(b Binding) error {
	lin := &Spec{Name: s.Name, Steps: s.Steps}
	return lin.Bind(b)
}

// GeneralResult reports the outcome of a generalized saga execution.
type GeneralResult struct {
	Committed bool
	// Aborted lists the steps that aborted (several parallel steps can
	// abort in a concurrent execution; the sequential native executor
	// reports at most one).
	Aborted []string
}

// ExecuteGeneral runs the generalized saga natively and deterministically:
// repeatedly start the first declared step whose prerequisites committed;
// on the first abort, stop starting steps and compensate every committed
// step in reverse completion order (which respects the partial order).
// Compensations are retriable.
func (e *Executor) ExecuteGeneral(spec *GeneralSpec, b Binding, rec *rm.Recorder) (GeneralResult, error) {
	if err := spec.Validate(); err != nil {
		return GeneralResult{}, err
	}
	if err := spec.Bind(b); err != nil {
		return GeneralResult{}, err
	}
	committed := make(map[string]bool, len(spec.Steps))
	var done []Step // in completion order
	for len(done) < len(spec.Steps) {
		var next *Step
		for i := range spec.Steps {
			st := &spec.Steps[i]
			if committed[st.Name] {
				continue
			}
			ready := true
			for _, d := range spec.Deps[st.Name] {
				if !committed[d] {
					ready = false
					break
				}
			}
			if ready {
				next = st
				break
			}
		}
		if next == nil {
			return GeneralResult{}, fmt.Errorf("saga %s: no runnable step (internal)", spec.Name)
		}
		ok, err := rm.Exec(b[next.Name], e.Decider, rec)
		if err != nil {
			return GeneralResult{}, err
		}
		if !ok {
			for i := len(done) - 1; i >= 0; i-- {
				comp := done[i].Compensation
				if err := e.compensateOne(spec.Name, comp, b[comp], rec); err != nil {
					return GeneralResult{}, err
				}
			}
			return GeneralResult{Committed: false, Aborted: []string{next.Name}}, nil
		}
		committed[next.Name] = true
		done = append(done, *next)
	}
	return GeneralResult{Committed: true}, nil
}

// CheckGeneralGuarantee verifies an observed history against the
// generalized saga guarantee:
//
//   - the forward phase executes each step at most once, every executed
//     step's prerequisites committed before it, and a step aborts at most
//     terminally (aborted steps commit nothing);
//   - if every step committed and nothing was compensated, the saga
//     committed;
//   - otherwise exactly the committed steps are compensated, each
//     compensation (after any number of aborted retries) commits, and the
//     compensation of a step happens only after the compensations of all
//     its committed dependents.
//
// Concurrent executions may abort several parallel steps and may commit
// steps after another step aborted (they were in flight); both are legal.
func CheckGeneralGuarantee(spec *GeneralSpec, events []rm.Event) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	compOf := make(map[string]string, len(spec.Steps)) // comp name -> step
	stepSet := make(map[string]bool, len(spec.Steps))
	for _, st := range spec.Steps {
		compOf[st.Compensation] = st.Name
		stepSet[st.Name] = true
	}

	committed := map[string]bool{}
	aborted := map[string]bool{}
	compensated := map[string]bool{}
	sawCompensation := false
	for idx, ev := range events {
		if stepSet[ev.Name] {
			if sawCompensation {
				return fmt.Errorf("saga %s: forward step %s after compensation began (event %d)", spec.Name, ev.Name, idx)
			}
			if committed[ev.Name] || aborted[ev.Name] {
				return fmt.Errorf("saga %s: step %s executed twice", spec.Name, ev.Name)
			}
			for _, d := range spec.Deps[ev.Name] {
				if !committed[d] {
					return fmt.Errorf("saga %s: step %s ran before its prerequisite %s committed", spec.Name, ev.Name, d)
				}
			}
			if ev.Kind == rm.EvCommit {
				committed[ev.Name] = true
			} else {
				aborted[ev.Name] = true
			}
			continue
		}
		step, isComp := compOf[ev.Name]
		if !isComp {
			return fmt.Errorf("saga %s: unknown event subject %q", spec.Name, ev.Name)
		}
		sawCompensation = true
		if !committed[step] {
			return fmt.Errorf("saga %s: compensation of %s, which never committed", spec.Name, step)
		}
		if compensated[step] {
			return fmt.Errorf("saga %s: %s compensated twice", spec.Name, step)
		}
		if ev.Kind == rm.EvAbort {
			continue // retriable compensation attempt
		}
		// Order: all committed dependents must already be compensated.
		for _, dep := range spec.Dependents(step) {
			if committed[dep] && !compensated[dep] {
				return fmt.Errorf("saga %s: %s compensated before its dependent %s", spec.Name, step, dep)
			}
		}
		compensated[step] = true
	}

	if len(aborted) == 0 && !sawCompensation {
		if len(committed) != len(spec.Steps) {
			return fmt.Errorf("saga %s: history ends with %d of %d steps committed and no compensation",
				spec.Name, len(committed), len(spec.Steps))
		}
		return nil
	}
	// Aborted (or compensate-completed) saga: every committed step must be
	// compensated.
	for step := range committed {
		if !compensated[step] {
			return fmt.Errorf("saga %s: committed step %s was never compensated", spec.Name, step)
		}
	}
	return nil
}
