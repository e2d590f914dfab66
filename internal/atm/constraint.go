// Package atm holds what the advanced transaction models of §4 share: the
// form their well-formedness is written in. Each model states its rules as
// one Table of named constraints behind one call, and a specification that
// breaks a rule is rejected with a Violation naming it.
package atm

import "fmt"

// Constraint is one row of a model's table: a name, the paper section the
// rule comes from, and its check.
type Constraint[S any] struct {
	Name    string
	Section string
	Check   func(S) error
}

// Table is a model's well-formedness: its constraints in check order.
type Table[S any] []Constraint[S]

// Check runs the table on spec and returns the first constraint it breaks
// as a *Violation.
func (t Table[S]) Check(spec S) error {
	for _, c := range t {
		if err := c.Check(spec); err != nil {
			return &Violation{Constraint: c.Name, Section: c.Section, Err: err}
		}
	}
	return nil
}

// Violation is a specification rejected by a named constraint; callers
// read it with errors.As.
type Violation struct {
	Constraint string
	Section    string
	Err        error
}

// Error is the rule's message with the constraint and section appended.
func (v *Violation) Error() string {
	return fmt.Sprintf("%v [%s, %s]", v.Err, v.Constraint, v.Section)
}

// Unwrap returns the rule's own error.
func (v *Violation) Unwrap() error { return v.Err }
