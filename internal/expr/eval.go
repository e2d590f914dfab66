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
	case *Ref:
		v, ok := env.Lookup(n.Path)
		if !ok {
			return Null, fmt.Errorf("unknown member %q", n.String())
		}
		return v, nil
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
