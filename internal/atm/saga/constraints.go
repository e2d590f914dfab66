package saga

import (
	"fmt"
	"slices"

	"repro/internal/atm"
)

// Constraints is the well-formedness of a saga, one row per rule in check
// order: the rows of a linear saga T1..Tn with compensations C1..Cn, then
// those of the partial order of a generalized (parallel) saga, which a
// linear saga passes trivially. Spec.Validate and GeneralSpec.Validate run
// it; an error names the row it broke (atm.Violation).
var Constraints = atm.Table[*GeneralSpec]{
	{Name: "saga.named", Section: "§4.1", Check: func(s *GeneralSpec) error {
		if s.Name == "" {
			return fmt.Errorf("saga: empty saga name")
		}
		return nil
	}},
	{Name: "saga.has-steps", Section: "§4.1", Check: func(s *GeneralSpec) error {
		if len(s.Steps) == 0 {
			return fmt.Errorf("saga %s: no steps", s.Name)
		}
		return nil
	}},
	{Name: "saga.step-named", Section: "§4.1", Check: func(s *GeneralSpec) error {
		for i, st := range s.Steps {
			if st.Name == "" {
				return fmt.Errorf("saga %s: step %d has empty name", s.Name, i+1)
			}
		}
		return nil
	}},
	{Name: "saga.compensated", Section: "§4.1", Check: func(s *GeneralSpec) error {
		for _, st := range s.Steps {
			if st.Compensation == "" {
				return fmt.Errorf("saga %s: step %q has no compensation", s.Name, st.Name)
			}
		}
		return nil
	}},
	{Name: "saga.unique-names", Section: "§4.1", Check: func(s *GeneralSpec) error {
		seen := make(map[string]bool, 2*len(s.Steps))
		for _, st := range s.Steps {
			for _, n := range []string{st.Name, st.Compensation} {
				if seen[n] {
					return fmt.Errorf("saga %s: duplicate subtransaction name %q", s.Name, n)
				}
				seen[n] = true
			}
		}
		return nil
	}},
	{Name: "saga.deps-declared", Section: "§4.1 (parallel)", Check: func(s *GeneralSpec) error {
		steps := make(map[string]bool, len(s.Steps))
		for _, st := range s.Steps {
			steps[st.Name] = true
		}
		for step, deps := range s.Deps {
			if !steps[step] {
				return fmt.Errorf("saga %s: dependency declared for unknown step %q", s.Name, step)
			}
			for _, d := range deps {
				if !steps[d] {
					return fmt.Errorf("saga %s: step %q depends on unknown step %q", s.Name, step, d)
				}
			}
		}
		return nil
	}},
	{Name: "saga.no-self-dependency", Section: "§4.1 (parallel)", Check: func(s *GeneralSpec) error {
		for step, deps := range s.Deps {
			if slices.Contains(deps, step) {
				return fmt.Errorf("saga %s: step %q depends on itself", s.Name, step)
			}
		}
		return nil
	}},
	{Name: "saga.no-repeated-dependency", Section: "§4.1 (parallel)", Check: func(s *GeneralSpec) error {
		for step, deps := range s.Deps {
			for i, d := range deps {
				if slices.Contains(deps[:i], d) {
					return fmt.Errorf("saga %s: step %q lists dependency %q twice", s.Name, step, d)
				}
			}
		}
		return nil
	}},
	{Name: "saga.acyclic", Section: "§4.1 (parallel)", Check: func(s *GeneralSpec) error {
		const grey, black = 1, 2
		color := make(map[string]int, len(s.Steps))
		var visit func(n string) error
		visit = func(n string) error {
			switch color[n] {
			case grey:
				return fmt.Errorf("saga %s: dependency cycle through %q", s.Name, n)
			case black:
				return nil
			}
			color[n] = grey
			for _, d := range s.Deps[n] {
				if err := visit(d); err != nil {
					return err
				}
			}
			color[n] = black
			return nil
		}
		for _, st := range s.Steps {
			if err := visit(st.Name); err != nil {
				return err
			}
		}
		return nil
	}},
}
