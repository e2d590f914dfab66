package flexible

// SubSpec declares one subtransaction. Pivot subtransactions are those
// that are neither compensatable nor retriable; a subtransaction may be
// both compensatable and retriable (§4.2).
type SubSpec struct {
	Name          string
	Compensatable bool
	Retriable     bool
	// Compensation is the name of the compensating subtransaction;
	// required exactly when Compensatable.
	Compensation string
}

// Pivot reports whether the subtransaction is a pivot.
func (s SubSpec) Pivot() bool { return !s.Compensatable && !s.Retriable }

// Kind renders the subtransaction type as in the paper's prose.
func (s SubSpec) Kind() string {
	switch {
	case s.Compensatable && s.Retriable:
		return "compensatable+retriable"
	case s.Compensatable:
		return "compensatable"
	case s.Retriable:
		return "retriable"
	default:
		return "pivot"
	}
}

// Spec is a flexible transaction: declared subtransactions plus the
// preference-ordered execution paths (most preferred first), as in the
// paper's Figure 3 example p1 > p2 > p3.
type Spec struct {
	Name  string
	Subs  []SubSpec
	Paths [][]string
}

// Sub returns the declaration of the named subtransaction, or nil.
func (s *Spec) Sub(name string) *SubSpec {
	for i := range s.Subs {
		if s.Subs[i].Name == name {
			return &s.Subs[i]
		}
	}
	return nil
}
