package expr

import "fmt"

// EvalError describes a runtime evaluation failure (unknown reference or
// type mismatch).
type EvalError struct {
	Expr string
	Msg  string
}

// Error implements error.
func (e *EvalError) Error() string {
	return fmt.Sprintf("expr: evaluating %q: %s", e.Expr, e.Msg)
}

// EvalBool evaluates a condition against the environment and requires a
// boolean result.
func EvalBool(n Node, env Env) (bool, error) {
	v, err := eval(n, env)
	if err != nil {
		return false, &EvalError{Expr: n.String(), Msg: err.Error()}
	}
	if v.Kind() != KindBool {
		return false, &EvalError{Expr: n.String(), Msg: fmt.Sprintf("condition yields %s, want BOOL", v.Kind())}
	}
	return v.AsBool(), nil
}

func eval(n Node, env Env) (Value, error) {
	switch n := n.(type) {
	case *Lit:
		return n.Val, nil
	case *Bound:
		if se, ok := env.(SlotEnv); ok {
			return se.At(n.Slot), nil
		}
		return lookup(n.Ref, env)
	case *Ref:
		return lookup(n, env)
	case *Unary:
		x, err := eval(n.X, env)
		if err != nil {
			return Null, err
		}
		if x.Kind() != KindBool {
			return Null, fmt.Errorf("NOT applied to %s", x.Kind())
		}
		return Bool(!x.AsBool()), nil
	case *Binary:
		switch n.Op {
		case OpAnd, OpOr:
			l, err := eval(n.L, env)
			if err != nil {
				return Null, err
			}
			if l.Kind() != KindBool {
				return Null, fmt.Errorf("%s applied to %s", n.Op, l.Kind())
			}
			// Short circuit.
			if n.Op == OpAnd && !l.AsBool() {
				return Bool(false), nil
			}
			if n.Op == OpOr && l.AsBool() {
				return Bool(true), nil
			}
			r, err := eval(n.R, env)
			if err != nil {
				return Null, err
			}
			if r.Kind() != KindBool {
				return Null, fmt.Errorf("%s applied to %s", n.Op, r.Kind())
			}
			return r, nil
		case OpEq, OpNe:
			l, err := eval(n.L, env)
			if err != nil {
				return Null, err
			}
			r, err := eval(n.R, env)
			if err != nil {
				return Null, err
			}
			eq := l.Equal(r)
			if n.Op == OpNe {
				eq = !eq
			}
			return Bool(eq), nil
		case OpLt, OpLe, OpGt, OpGe:
			l, err := eval(n.L, env)
			if err != nil {
				return Null, err
			}
			r, err := eval(n.R, env)
			if err != nil {
				return Null, err
			}
			c, err := l.Compare(r)
			if err != nil {
				return Null, err
			}
			switch n.Op {
			case OpLt:
				return Bool(c < 0), nil
			case OpLe:
				return Bool(c <= 0), nil
			case OpGt:
				return Bool(c > 0), nil
			default:
				return Bool(c >= 0), nil
			}
		default:
			return Null, fmt.Errorf("invalid operator %v", n.Op)
		}
	default:
		return Null, fmt.Errorf("invalid node %T", n)
	}
}

func lookup(r *Ref, env Env) (Value, error) {
	v, ok := env.Lookup(r.Path)
	if !ok {
		return Null, fmt.Errorf("unknown member %q", r.String())
	}
	return v, nil
}

// Bind returns a copy of n in which every reference that slot resolves is
// Bound to its slot, and n itself when slot resolves none. A bound
// condition must be evaluated against SlotEnvs whose slots are the ones
// slot resolved against; a reference slot does not resolve stays a Ref and
// fails at evaluation as it would have unbound.
func Bind(n Node, slot func(path []string) (int, bool)) Node {
	switch n := n.(type) {
	case *Ref:
		if i, ok := slot(n.Path); ok {
			return &Bound{Ref: n, Slot: i}
		}
	case *Unary:
		if x := Bind(n.X, slot); x != n.X {
			return &Unary{Op: n.Op, X: x}
		}
	case *Binary:
		l, r := Bind(n.L, slot), Bind(n.R, slot)
		if l != n.L || r != n.R {
			return &Binary{Op: n.Op, L: l, R: r}
		}
	}
	return n
}

// Refs returns the set of member paths referenced by the expression, in
// first-occurrence order. Translators use it to type-check generated
// conditions against container types.
func Refs(n Node) [][]string {
	var out [][]string
	seen := map[string]bool{}
	var walk func(Node)
	walk = func(n Node) {
		switch n := n.(type) {
		case *Ref:
			key := n.String()
			if !seen[key] {
				seen[key] = true
				out = append(out, n.Path)
			}
		case *Unary:
			walk(n.X)
		case *Binary:
			walk(n.L)
			walk(n.R)
		}
	}
	walk(n)
	return out
}
