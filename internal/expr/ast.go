package expr

import "strings"

// Node is an expression AST node. Nodes are immutable after parsing and can
// be shared between goroutines.
type Node interface {
	// String renders the node in canonical FDL condition syntax; the result
	// re-parses to an equivalent tree.
	String() string
	// precedence is used by String to decide on parenthesization.
	precedence() int
}

// Op identifies binary and unary operators.
type Op uint8

// Operators of the condition language.
const (
	OpInvalid Op = iota
	OpOr
	OpAnd
	OpNot
	OpEq // =
	OpNe // <>
	OpLt // <
	OpLe // <=
	OpGt // >
	OpGe // >=
)

// String renders the operator in FDL syntax.
func (o Op) String() string {
	switch o {
	case OpOr:
		return "OR"
	case OpAnd:
		return "AND"
	case OpNot:
		return "NOT"
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

const (
	precOr = iota + 1
	precAnd
	precNot
	precCmp
	precAtom
)

// Binary is a binary operation: AND, OR or a comparison.
type Binary struct {
	Op   Op
	L, R Node
}

func (b *Binary) precedence() int {
	switch b.Op {
	case OpOr:
		return precOr
	case OpAnd:
		return precAnd
	default:
		return precCmp
	}
}

// String implements Node.
func (b *Binary) String() string {
	var sb strings.Builder
	writeOperand(&sb, b.L, b.precedence(), false)
	sb.WriteByte(' ')
	sb.WriteString(b.Op.String())
	sb.WriteByte(' ')
	writeOperand(&sb, b.R, b.precedence(), true)
	return sb.String()
}

func writeOperand(sb *strings.Builder, n Node, parentPrec int, right bool) {
	p := n.precedence()
	need := p < parentPrec || (right && p == parentPrec && parentPrec >= precCmp)
	// AND/OR are associative; comparisons are non-associative so the right
	// operand of a comparison at equal precedence needs parentheses.
	if right && p == parentPrec && parentPrec < precCmp {
		need = false
	}
	if need {
		sb.WriteByte('(')
		sb.WriteString(n.String())
		sb.WriteByte(')')
		return
	}
	sb.WriteString(n.String())
}

// Unary is the NOT operation.
type Unary struct {
	Op Op // always OpNot
	X  Node
}

func (u *Unary) precedence() int { return precNot }

// String implements Node.
func (u *Unary) String() string {
	if u.X.precedence() < precNot {
		return "NOT (" + u.X.String() + ")"
	}
	return "NOT " + u.X.String()
}

// Lit is a literal value.
type Lit struct {
	Val Value
}

func (l *Lit) precedence() int { return precAtom }

// String implements Node.
func (l *Lit) String() string { return l.Val.String() }

// Ref is a reference to a container member, as a dotted path.
type Ref struct {
	Path []string
}

func (r *Ref) precedence() int { return precAtom }

// String implements Node.
func (r *Ref) String() string { return joinPath(r.Path) }

// Bound is a Ref resolved by Bind to the slot its member has in the
// environments the condition is evaluated against (SlotEnv). It renders
// as the Ref, so a bound condition's text and errors are the unbound
// one's.
type Bound struct {
	Ref  *Ref
	Slot int
}

func (b *Bound) precedence() int { return precAtom }

// String implements Node.
func (b *Bound) String() string { return b.Ref.String() }

// True is the constant TRUE expression, handy as a default condition.
var True Node = &Lit{Val: Bool(true)}

// False is the constant FALSE expression.
var False Node = &Lit{Val: Bool(false)}
